package core

// Optional recycling extension (DESIGN.md §12). The steady-state epoch loop
// retires values at three well-defined points: a block summary dies when its
// epoch leaves the butterfly window, a SOS generation dies when the window
// slides past it, and a driver-folded wing aggregate dies when its epoch's
// second pass completes (intermediate folds die as soon as the row is
// built). A lifeguard that implements Recycler gets those dead values handed
// back instead of left for the garbage collector, letting it return pooled
// storage.
//
// Ownership contract: the driver calls Recycle only on values it is the sole
// referent of — never on summaries still inside the window, on the current
// SOS, or on the final SOS (the Result keeps it).
// A recycled value must never be observed by a later pass; the
// poison-on-release debug mode in internal/sets makes violations loud under
// the race detector.

// Recycler is implemented by lifeguards that pool their Summary, State or
// wing-aggregate values. dead is never nil, is always a value the lifeguard
// itself returned, and is handed over exactly once. A SOS generation is
// never the value just returned by UpdateSOS. The lifeguard
// switches on the concrete type and ignores the kinds it does not pool. A
// pooled kind must own what it hands back: lockset recycles a dead SOS
// generation's map, but never the immutable locksets that consecutive
// generations share.
type Recycler interface {
	Recycle(dead any)
}
