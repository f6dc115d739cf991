package lockset

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/lifeguard"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// Oracle is the exact sequential lockset detector over a serialized stream
// (the same simplified Eraser discipline as the butterfly version). It keeps
// the map-based sets.Set representation on purpose: it is the reference, and
// shares no code with the butterfly version's lock vectors.
type Oracle struct {
	held    map[trace.ThreadID]sets.Set
	perLoc  map[uint64]*oracleCand
	flagged map[uint64]bool
}

// oracleCand is the oracle's per-location candidate state.
type oracleCand struct {
	c       sets.Set // nil = virgin (universe: every lock still a candidate)
	threads map[trace.ThreadID]struct{}
	write   bool
}

var _ lifeguard.Oracle = (*Oracle)(nil)

// NewOracle returns a sequential lockset race detector.
func NewOracle() *Oracle {
	o := &Oracle{}
	o.Reset()
	return o
}

// Name implements lifeguard.Oracle.
func (o *Oracle) Name() string { return "lockset-sequential" }

// Reset implements lifeguard.Oracle.
func (o *Oracle) Reset() {
	o.held = map[trace.ThreadID]sets.Set{}
	o.perLoc = map[uint64]*oracleCand{}
	o.flagged = map[uint64]bool{}
}

func (o *Oracle) heldBy(t trace.ThreadID) sets.Set {
	h := o.held[t]
	if h == nil {
		h = sets.NewSet()
		o.held[t] = h
	}
	return h
}

// Process implements lifeguard.Oracle.
func (o *Oracle) Process(ref trace.Ref, e trace.Event) []core.Report {
	switch e.Kind {
	case trace.Lock:
		o.heldBy(ref.Thread).Add(e.Addr)
	case trace.Unlock:
		o.heldBy(ref.Thread).Remove(e.Addr)
	case trace.Read, trace.Write:
		held := o.heldBy(ref.Thread)
		var reports []core.Report
		for a := e.Lo(); a < e.Hi(); a++ {
			c := o.perLoc[a]
			if c == nil {
				c = &oracleCand{threads: map[trace.ThreadID]struct{}{}}
				o.perLoc[a] = c
			}
			if c.c == nil {
				c.c = held.Clone()
			} else {
				c.c.IntersectInPlace(held)
			}
			c.write = c.write || e.Kind == trace.Write
			c.threads[ref.Thread] = struct{}{}
			if !o.flagged[a] && c.c.Empty() && len(c.threads) >= 2 && c.write {
				o.flagged[a] = true
				reports = append(reports, core.Report{
					Ref: ref, Ev: e, Code: CodeRace,
					Detail: fmt.Sprintf("no common lock protects %#x", a),
				})
			}
		}
		return reports
	}
	return nil
}

// Candidates exposes the candidate lockset of a location (nil = virgin).
func (o *Oracle) Candidates(a uint64) sets.Set {
	if c, ok := o.perLoc[a]; ok && c.c != nil {
		return c.c.Clone()
	}
	return nil
}
