package core

import (
	"sync"
)

// Address-range sharding (DESIGN.md §11). With Driver.Shards = K > 1 and a
// lifeguard that implements ShardedLifeguard, the driver partitions the
// lifeguard's address-indexed state — the SOS and every block summary's
// GEN/KILL/SIDE-OUT sets — into K disjoint address shards (partition
// functions in internal/sets/shard.go). FirstPass, SecondPass and the SOS
// update then each run as K independent per-shard tasks with no shared
// mutable maps: task k reads and writes only shard k of every set it
// touches. Results are merged at two points only, both deterministic:
//
//   - per block, each pass merges its shards' per-event verdict bits in
//     event order, reconstructing the exact report sequence a serial run
//     emits (the lifeguards' check predicates are unions/ intersections over
//     bytes, so a whole-range check is the OR of its per-shard pieces);
//
//   - at the end of the run, the sharded final SOS is merged into the
//     canonical unsharded representation, so Result.FinalSOS compares equal
//     (reflect.DeepEqual) against a serial run's.
//
// Because the partition is a pure function of (address, K) and every shard
// task computes the serial equations restricted to its shard, the shard
// count is a no-op on results — the property the shard-invariance
// differential suite and the shard property tests
// (shard_differential_test.go) pin down.

// ShardedLifeguard is an optional Lifeguard extension enabling sharded
// execution. The driver owns the sharded representation: the SOS is a
// ShardedState, every block summary a *ShardedSummary, and each piece is the
// lifeguard's ordinary unsharded value restricted to one shard. Because the
// lifeguard's equations are elementwise, the driver advances the SOS by
// running the unmodified UpdateSOS once per shard on piece views, starts it
// from K × BottomState, and unwraps pieces before Recycle and StateSize see
// them. What a lifeguard supplies is its per-shard pass bodies (FirstPass and
// SecondPass branch on PassContext.Sharding) and the final merge, and it must
// guarantee that for any K they produce byte-identical reports (same order)
// and an SOS equal to the serial one.
type ShardedLifeguard interface {
	Lifeguard

	// CanShard reports whether the current configuration supports sharding.
	// Configurations that observe cross-shard state (e.g. a ReachingDefs
	// Check hook that wants the full IN set) return false and run unsharded.
	CanShard() bool

	// MergeSOS folds the K pieces of a sharded SOS into the canonical
	// unsharded representation (the one BottomState/UpdateSOS use). The
	// pieces may be retained; implementations must not mutate them.
	MergeSOS(pieces []State) State
}

// ShardedSummary is a block summary split by shard: Pieces[k] is the
// lifeguard's ordinary Summary holding exactly shard k's facts. A sharded
// FirstPass returns one.
type ShardedSummary struct {
	Pieces []Summary
}

// ShardedState is the SOS split by shard: element k is the lifeguard's
// ordinary State holding exactly shard k's facts.
type ShardedState []State

// PieceRow views shard k of an epoch row of sharded summaries as a row of
// ordinary summaries (nil stays nil, row and entry alike).
func PieceRow(row []Summary, k int) []Summary {
	if row == nil {
		return nil
	}
	out := make([]Summary, len(row))
	for t, s := range row {
		if s != nil {
			out[t] = s.(*ShardedSummary).Pieces[k]
		}
	}
	return out
}

// Piece views shard k of a sharded pass context — piece k of the SOS, of
// Head and Own, and of both epoch rows — so a lifeguard's unsharded
// equations run unchanged against one shard. The view is itself unsharded
// (Sharding nil) and carries no wing aggregates.
func (ctx PassContext) Piece(k int) PassContext {
	c := PassContext{
		SOS:        ctx.SOS.(ShardedState)[k],
		Epoch1Back: PieceRow(ctx.Epoch1Back, k),
		Epoch2Back: PieceRow(ctx.Epoch2Back, k),
	}
	if ctx.Head != nil {
		c.Head = ctx.Head.(*ShardedSummary).Pieces[k]
	}
	if ctx.Own != nil {
		c.Own = ctx.Own.(*ShardedSummary).Pieces[k]
	}
	return c
}

// Verdicts holds the per-event verdict bits of one sharded pass over one
// block. Row k is written by shard task k alone, allocated on its first Set;
// once the tasks have joined, the pass ORs the rows in event order (Any) to
// rebuild the serial report sequence.
type Verdicts [][]bool

// Set flags event i of an n-event block on behalf of shard k.
func (v Verdicts) Set(k, i, n int) {
	if v[k] == nil {
		v[k] = make([]bool, n)
	}
	v[k][i] = true
}

// Any reports whether any shard flagged event i.
func (v Verdicts) Any(i int) bool {
	for _, row := range v {
		if row != nil && row[i] {
			return true
		}
	}
	return false
}

// Sharding is the per-run shard scheduler handed to lifeguards via
// PassContext.Sharding (nil when the run is unsharded). It is shared by all
// concurrently running passes, so it is stateless apart from configuration
// and metrics handles.
type Sharding struct {
	k        int
	parallel bool
	m        *driverMetrics
}

// K returns the shard count (always >= 2 for a non-nil Sharding).
func (sh *Sharding) K() int { return sh.k }

// Do runs f(k) for every shard k in [0, K), in parallel when the driver is.
// It returns when all shard tasks have finished. Tasks are spawned as plain
// goroutines rather than drawn from a fixed pool: Do is called from within
// per-thread pass workers, and nested fixed pools deadlock under fork-join.
func (sh *Sharding) Do(f func(k int)) {
	if !sh.parallel {
		for k := 0; k < sh.k; k++ {
			start := sh.m.now()
			f(k)
			sh.m.shardTaskDone(k, start)
		}
		return
	}
	// A panicking shard task is boxed and re-panicked after the join: every
	// sibling still completes and wg.Wait() returns, and the panic surfaces
	// on Do's caller — a pass worker whose own box (or the serial feeding
	// goroutine) carries it the rest of the way. capture passes an existing
	// *WorkerPanic through unwrapped, so nesting keeps the original stack.
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(sh.k)
	for k := 0; k < sh.k; k++ {
		go func(k int) {
			defer wg.Done()
			defer box.capture()
			sh.m.shardTaskStart()
			defer sh.m.shardTaskEnd()
			start := sh.m.now()
			f(k)
			sh.m.shardTaskDone(k, start)
		}(k)
	}
	wg.Wait()
	box.rethrow()
}

// newSharding returns the run's shard scheduler, or nil when EffectiveShards
// says the run is unsharded. The engine calls this once per run and threads
// the result through every pass context, so a run is either fully sharded or
// fully unsharded — state representations never mix mid-run.
func (d *Driver) newSharding(m *driverMetrics) *Sharding {
	K := d.EffectiveShards()
	m.shardingConfigured(K)
	if K == 1 {
		return nil
	}
	return &Sharding{k: K, parallel: d.Parallel, m: m}
}

// EffectiveShards reports the shard count a run with this configuration
// will actually use: Shards when the lifeguard supports sharding, 1
// otherwise. The server reports this in the session handshake.
func (d *Driver) EffectiveShards() int {
	if d.Shards <= 1 {
		return 1
	}
	if sl, ok := d.LG.(ShardedLifeguard); ok && sl.CanShard() {
		return d.Shards
	}
	return 1
}

// bottomState returns the initial SOS in the run's representation: K
// independent bottoms when sharded.
func (d *Driver) bottomState(sh *Sharding) State {
	if sh == nil {
		return d.LG.BottomState()
	}
	out := make(ShardedState, sh.k)
	for k := range out {
		out[k] = d.LG.BottomState()
	}
	return out
}

// updateSOS advances the SOS in the run's representation. Sharded, shard k's
// update is the lifeguard's serial UpdateSOS over piece k of the state and of
// the epoch rows, one task per shard.
func (d *Driver) updateSOS(sh *Sharding, prev State, prevEpoch, curEpoch []Summary) State {
	if sh == nil {
		return d.LG.UpdateSOS(prev, prevEpoch, curEpoch)
	}
	ps := prev.(ShardedState)
	out := make(ShardedState, sh.k)
	sh.Do(func(k int) {
		out[k] = d.LG.UpdateSOS(ps[k], PieceRow(prevEpoch, k), PieceRow(curEpoch, k))
	})
	return out
}

// mergeSOS converts s to the canonical unsharded representation for
// Result.FinalSOS, so sharded and unsharded runs are directly comparable.
func (d *Driver) mergeSOS(sh *Sharding, s State) State {
	if sh == nil {
		return s
	}
	return d.LG.(ShardedLifeguard).MergeSOS(s.(ShardedState))
}

// recyclePieces hands a dead value to rec piece by piece: the lifeguard's
// Recycler only ever sees its own unsharded types, never the containers.
func recyclePieces(rec Recycler, dead any) {
	switch v := dead.(type) {
	case *ShardedSummary:
		for _, p := range v.Pieces {
			rec.Recycle(p)
		}
	case ShardedState:
		for _, p := range v {
			rec.Recycle(p)
		}
	default:
		rec.Recycle(dead)
	}
}

// stateSize is sizer.StateSize summed over the pieces of a sharded SOS.
func stateSize(sizer StateSizer, s State) int {
	ss, ok := s.(ShardedState)
	if !ok {
		return sizer.StateSize(s)
	}
	n := 0
	for _, p := range ss {
		n += sizer.StateSize(p)
	}
	return n
}
