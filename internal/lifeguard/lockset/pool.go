package lockset

import (
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/sets"
)

// Pooled per-block and per-generation state (DESIGN.md §12). A recycled
// summary keeps its location map and its arena. A recycled SOS generation
// is pooled as an empty shell: its undo map goes to the garbage collector,
// because clearing a Go map costs its capacity, so a pooled undo map that
// once held a large epoch would tax every later update. No pool ever holds
// a lockset someone else can still read: summary locksets live in the
// summary's own arena, and SOS locksets are never pooled at all. Nor is the
// live candidate map: it passes from generation to generation and is never
// copied, and the garbage collector frees it with the session's last
// generation.

var (
	summaryPool sync.Pool
	statePool   sync.Pool
)

// poisonLock fills a released arena in race builds, following the sets
// package's poisonAddr: a live aliased reader of a recycled arena sees this
// implausible lock instead of silently stale locksets.
const poisonLock = 0xdead_dead_dead_dead

func getSummary() *Summary {
	if s, _ := summaryPool.Get().(*Summary); s != nil {
		return s
	}
	return &Summary{perLoc: map[uint64]locInfo{}, arena: make([]uint64, 0, 64)}
}

func putSummary(s *Summary) {
	if sets.RaceEnabled {
		p := s.arena[:cap(s.arena)]
		for i := range p {
			p[i] = poisonLock
		}
	}
	s.entryHeld, s.exitHeld = nil, nil
	clear(s.perLoc)
	s.arena = s.arena[:0]
	summaryPool.Put(s)
}

// poisonedGen is what a recycled generation points at in race builds, where
// it is not pooled: a stale lookup reaches it and panics instead of reading
// its successor's candidates.
var poisonedGen state

func getState() *state {
	if s, _ := statePool.Get().(*state); s != nil {
		return s
	}
	return new(state)
}

func putState(s *state) {
	if sets.RaceEnabled {
		*s = state{next: &poisonedGen}
		return
	}
	*s = state{}
	statePool.Put(s)
}

var _ core.Recycler = (*Butterfly)(nil)

// Recycle implements core.Recycler for summaries and SOS generations.
func (l *Butterfly) Recycle(dead any) {
	switch v := dead.(type) {
	case *Summary:
		putSummary(v)
	case *state:
		putState(v)
	}
}
