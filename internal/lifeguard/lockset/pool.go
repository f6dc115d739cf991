package lockset

import (
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/sets"
)

// Pooled per-block state (DESIGN.md §12). Lockset summaries are map-heavy —
// held-lock sets plus a per-location table — so recycling keeps the maps (and
// their bucket arrays) alive across blocks instead of rebuilding them every
// tick. The SOS is NOT recycled: UpdateSOS shares unchanged candidates
// between consecutive states (copy-on-write), so a retired state may still
// alias the live one.

var (
	summaryPool sync.Pool
	locInfoPool sync.Pool
)

func getSummary() *Summary {
	if s, _ := summaryPool.Get().(*Summary); s != nil {
		return s
	}
	return &Summary{perLoc: map[uint64]*locInfo{}}
}

func putSummary(s *Summary) {
	if s == nil {
		return
	}
	sets.PutMap(s.entryHeld)
	sets.PutMap(s.exitHeld)
	s.entryHeld, s.exitHeld = nil, nil
	for a, li := range s.perLoc {
		sets.PutMap(li.inter)
		li.inter, li.write = nil, false
		locInfoPool.Put(li)
		delete(s.perLoc, a)
	}
	summaryPool.Put(s)
}

func getLocInfo() *locInfo {
	if li, _ := locInfoPool.Get().(*locInfo); li != nil {
		return li
	}
	return &locInfo{}
}

var _ core.Recycler = (*Butterfly)(nil)

// Recycle implements core.Recycler for summaries only; a dead SOS falls
// through untouched (see above).
func (l *Butterfly) Recycle(dead any) {
	if v, ok := dead.(*Summary); ok {
		putSummary(v)
	}
}
