package addrcheck

import (
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/sets"
)

// Pooled per-block state (DESIGN.md §12). Every block summary and wing
// aggregate is built from recycled storage and handed back by the driver
// through the core.Recycler hook when it leaves the butterfly window, so the
// steady-state epoch loop allocates nothing. Pooled summaries keep their interval sets attached across
// recycling — a released summary is reset to canonical empty form, making it
// indistinguishable from a freshly constructed one.

var summaryPool sync.Pool

func getSummary() *Summary {
	if s, _ := summaryPool.Get().(*Summary); s != nil {
		return s
	}
	return &Summary{
		Gen:     sets.GetSet(),
		Kill:    sets.GetSet(),
		GenAny:  sets.GetSet(),
		KillAny: sets.GetSet(),
		Access:  sets.GetSet(),
	}
}

func putSummary(s *Summary) {
	if s == nil {
		return
	}
	s.Gen.Reset()
	s.Kill.Reset()
	s.GenAny.Reset()
	s.KillAny.Reset()
	s.Access.Reset()
	summaryPool.Put(s)
}

var wingPool sync.Pool

func getWingAgg() *wingAgg {
	if w, _ := wingPool.Get().(*wingAgg); w != nil {
		return w
	}
	return &wingAgg{changes: sets.GetSet(), access: sets.GetSet()}
}

func putWingAgg(w *wingAgg) {
	if w == nil {
		return
	}
	w.changes.Reset()
	w.access.Reset()
	wingPool.Put(w)
}

var _ core.Recycler = (*Butterfly)(nil)

// Recycle implements core.Recycler: dead summaries, SOS generations and wing
// folds return their storage to the pools.
func (a *Butterfly) Recycle(dead any) {
	switch v := dead.(type) {
	case *Summary:
		putSummary(v)
	case *sets.IntervalSet:
		sets.PutSet(v)
	case *wingAgg:
		putWingAgg(v)
	}
}
