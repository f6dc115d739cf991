package taintcheck

import (
	"sync"

	"butterfly/internal/core"
)

// Pooled per-block state (DESIGN.md §12). TaintCheck summaries are transfer-
// function tables; recycling keeps the maps and the tfn nodes alive across
// blocks. Transfer functions are immutable after FirstPass builds them (the
// resolver only reads), so a tfn is safe to recycle the moment its summary
// leaves the butterfly window. The SOS (a plain fact set) is rebuilt fresh by
// every update and never aliased, so it needs no recycler.

var (
	summaryPool sync.Pool
	tfnPool     sync.Pool
)

func getSummary() *Summary {
	if s, _ := summaryPool.Get().(*Summary); s != nil {
		return s
	}
	return &Summary{
		writes:    map[uint64][]*tfn{},
		lastCheck: map[uint64]Status{},
	}
}

func putSummary(s *Summary) {
	if s == nil {
		return
	}
	for a, fs := range s.writes {
		for _, f := range fs {
			*f = tfn{}
			tfnPool.Put(f)
		}
		delete(s.writes, a)
	}
	for a := range s.lastCheck {
		delete(s.lastCheck, a)
	}
	summaryPool.Put(s)
}

func getTfn() *tfn {
	if f, _ := tfnPool.Get().(*tfn); f != nil {
		return f
	}
	return &tfn{}
}

var _ core.Recycler = (*Butterfly)(nil)

// Recycle implements core.Recycler for summaries only.
func (tc *Butterfly) Recycle(dead any) {
	if v, ok := dead.(*Summary); ok {
		putSummary(v)
	}
}
