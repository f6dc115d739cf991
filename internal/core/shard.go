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
// execution. A lifeguard that implements it must guarantee that for any K,
// running its passes and SOS update shard-by-shard and merging produces
// byte-identical reports (same order) and an SOS equal to the serial one.
type ShardedLifeguard interface {
	Lifeguard

	// CanShard reports whether the current configuration supports sharding.
	// Configurations that observe cross-shard state (e.g. a ReachingDefs
	// Check hook that wants the full IN set) return false and run unsharded.
	CanShard() bool

	// BottomStateSharded returns the initial SOS split into sh.K() shards.
	BottomStateSharded(sh *Sharding) State

	// UpdateSOSSharded is UpdateSOS over sharded state and sharded epoch
	// rows; implementations run one task per shard via sh.Do.
	UpdateSOSSharded(sh *Sharding, prev State, prevEpoch, curEpoch []Summary) State

	// MergeSOS converts a sharded state into the canonical unsharded
	// representation (the one BottomState/UpdateSOS use). The input may be
	// retained; implementations must not mutate it.
	MergeSOS(s State) State
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
	if K == 1 {
		return nil
	}
	m.shardingConfigured(K)
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

// bottomState returns the initial SOS in the run's representation.
func (d *Driver) bottomState(sh *Sharding) State {
	if sh == nil {
		return d.LG.BottomState()
	}
	return d.LG.(ShardedLifeguard).BottomStateSharded(sh)
}

// updateSOS advances the SOS in the run's representation.
func (d *Driver) updateSOS(sh *Sharding, prev State, prevEpoch, curEpoch []Summary) State {
	if sh == nil {
		return d.LG.UpdateSOS(prev, prevEpoch, curEpoch)
	}
	return d.LG.(ShardedLifeguard).UpdateSOSSharded(sh, prev, prevEpoch, curEpoch)
}

// mergeSOS converts s to the canonical unsharded representation for
// Result.FinalSOS, so sharded and unsharded runs are directly comparable.
func (d *Driver) mergeSOS(sh *Sharding, s State) State {
	if sh == nil {
		return s
	}
	return d.LG.(ShardedLifeguard).MergeSOS(s)
}
