package taintcheck

import (
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/sets"
)

// Pooled per-block and per-generation state (DESIGN.md §12). A recycled
// summary keeps the backings of its transfer functions and its LASTCHECK
// vector; a recycled SOS generation keeps its location backing, which the
// next UpdateSOS writes into. Transfer functions and generations are
// immutable once built (the resolver and the LSOS views only read), so
// either is safe to recycle the moment the driver hands it back. Resolvers
// are second-pass scratch, taken and returned by SecondPass itself; they
// stay out of the summary so that a summary holds only what the analysis
// concluded.

var (
	summaryPool  sync.Pool
	sosPool      sync.Pool
	resolverPool sync.Pool
)

// poisonLoc fills released backings in race builds, following the sets
// package's poisonAddr: a live aliased reader of a recycled summary or
// generation sees this implausible location instead of silently stale data.
const poisonLoc = 0xdead_dead_dead_dead

func getSummary() *Summary {
	if s, _ := summaryPool.Get().(*Summary); s != nil {
		return s
	}
	// Never nil, so a fresh summary and a recycled one compare equal.
	return &Summary{
		tfns:    make([]tfn, 0, 64),
		locs:    make([]uint64, 0, 64),
		runs:    make([]int32, 0, 65),
		last:    make([]Status, 0, 64),
		reports: make([]core.Report, 0),
	}
}

func putSummary(s *Summary) {
	if sets.RaceEnabled {
		for i := range s.tfns {
			s.tfns[i] = tfn{loc: poisonLoc}
		}
		for i := range s.locs {
			s.locs[i] = poisonLoc
		}
	}
	clear(s.reports)
	s.tfns, s.locs, s.runs, s.last = s.tfns[:0], s.locs[:0], s.runs[:0], s.last[:0]
	s.filter = [filterWords]uint64{}
	s.reports = s.reports[:0]
	summaryPool.Put(s)
}

func getSOS() *sos {
	if s, _ := sosPool.Get().(*sos); s != nil {
		return s
	}
	return &sos{}
}

func putSOS(s *sos) {
	if sets.RaceEnabled {
		for i := range s.locs {
			s.locs[i] = poisonLoc
		}
	}
	s.locs = s.locs[:0]
	sosPool.Put(s)
}

func getResolver() *resolver {
	if r, _ := resolverPool.Get().(*resolver); r != nil {
		return r
	}
	return &resolver{}
}

func putResolver(r *resolver) {
	r.finish()
	resolverPool.Put(r)
}

var _ core.Recycler = (*Butterfly)(nil)

// Recycle implements core.Recycler for summaries and SOS generations.
func (tc *Butterfly) Recycle(dead any) {
	switch v := dead.(type) {
	case *Summary:
		putSummary(v)
	case *sos:
		putSOS(v)
	}
}
