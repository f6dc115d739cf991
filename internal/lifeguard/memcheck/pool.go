package memcheck

import (
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/sets"
)

// Pooled per-block state (DESIGN.md §12), mirroring addrcheck: summaries are
// built from recycled storage and handed back through the core.Recycler
// hook when they leave the butterfly window. A released summary is reset to
// canonical empty form before reuse.

var summaryPool sync.Pool

func getSummary() *Summary {
	if s, _ := summaryPool.Get().(*Summary); s != nil {
		return s
	}
	return &Summary{
		Gen:     sets.GetSet(),
		Kill:    sets.GetSet(),
		KillAny: sets.GetSet(),
		Reads:   sets.GetSet(),
	}
}

func putSummary(s *Summary) {
	if s == nil {
		return
	}
	s.Gen.Reset()
	s.Kill.Reset()
	s.KillAny.Reset()
	s.Reads.Reset()
	summaryPool.Put(s)
}

var _ core.Recycler = (*Butterfly)(nil)

// Recycle implements core.Recycler: dead summaries and SOS generations
// return their storage to the pools.
func (m *Butterfly) Recycle(dead any) {
	switch v := dead.(type) {
	case *Summary:
		putSummary(v)
	case *sets.IntervalSet:
		sets.PutSet(v)
	}
}
