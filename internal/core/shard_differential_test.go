package core_test

// Shard-invariance differential suite: sharded runs must be byte-identical
// — same reports, same order, same final SOS — to the serial unsharded
// reference (referenceRun) for every lifeguard, every entry point, and every
// shard count. This is the proof obligation behind Driver.Shards: sharding is a
// scheduling decision, never an accuracy knob.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// wideTrace is randomTrace over a heap wide enough to span many 64-byte
// shard granules (64 slots × 16 B = 16 granules), with accesses at unaligned
// offsets and multi-slot allocations so event ranges straddle granule
// boundaries — every shard count in the matrix must split ranges into
// multiple pieces.
func wideTrace(rng *rand.Rand, nthreads int) *trace.Trace {
	b := trace.NewBuilder(nthreads)
	const (
		heapBase  = 0x1000
		heapSlots = 64
		slotSize  = 16
		locs      = 96
		locks     = 3
	)
	slot := func() uint64 { return heapBase + uint64(rng.Intn(heapSlots))*slotSize }
	loc := func() uint64 { return uint64(0x40 + rng.Intn(locs)) }
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		n := rng.Intn(80)
		if rng.Intn(8) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(16) {
			case 0:
				b.Alloc(slot(), slotSize*uint64(1+rng.Intn(8)))
			case 1:
				b.Free(slot(), slotSize*uint64(1+rng.Intn(8)))
			case 2, 3, 4:
				b.Read(slot()+uint64(rng.Intn(slotSize)), uint64(1+rng.Intn(4*slotSize)))
			case 5, 6:
				b.Write(slot()+uint64(rng.Intn(slotSize)), uint64(1+rng.Intn(4*slotSize)))
			case 7:
				b.Taint(loc(), uint64(1+rng.Intn(2)))
			case 8:
				b.Untaint(loc())
			case 9, 10:
				b.Unop(loc(), loc())
			case 11:
				b.Binop(loc(), loc(), loc())
			case 12:
				b.Jump(loc())
			case 13:
				b.Lock(uint64(1 + rng.Intn(locks)))
			case 14:
				b.Unlock(uint64(1 + rng.Intn(locks)))
			default:
				b.Nop(1)
			}
		}
	}
	return b.Build()
}

// TestDifferentialShardInvariance is the tentpole proof: every lifeguard ×
// {Run, RunStream} × serial/parallel × shards ∈ {1, 2, 3, 8} produces the
// exact report sequence (order included) and the exact final SOS of the
// serial unsharded reference. Run is the push-mode loop — NewIncremental,
// FeedEpoch per row, Finish — so it covers Incremental too.
//
// TaintCheck does not implement ShardedLifeguard (nothing in it is
// shard-local, DESIGN.md §11), so all of its shard columns exercise the
// K = 1 engine; they stay in the matrix to pin that asking for shards is a
// no-op for it rather than an error.
func TestDifferentialShardInvariance(t *testing.T) {
	type runner struct {
		name string
		run  func(t *testing.T, d *core.Driver, g *epoch.Grid) *core.Result
	}
	runners := []runner{
		{"run", func(t *testing.T, d *core.Driver, g *epoch.Grid) *core.Result {
			return d.Run(g)
		}},
		{"stream", func(t *testing.T, d *core.Driver, g *epoch.Grid) *core.Result {
			res, err := d.RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}

	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nthreads := 1 + rng.Intn(6)
				h := []int{1, 3, 9}[rng.Intn(3)]
				tr := wideTrace(rng, nthreads)
				g, err := epoch.ChunkWithSkew(tr, h, rng.Intn(h), seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fmt.Sprintf("seed=%d threads=%d h=%d epochs=%d events=%d",
					seed, nthreads, h, g.NumEpochs(), g.TotalEvents())

				want := referenceRun(mk(), g)

				for _, shards := range []int{1, 2, 3, 8} {
					for _, parallel := range []bool{false, true} {
						for _, r := range runners {
							d := &core.Driver{LG: mk(), Parallel: parallel, Shards: shards}
							got := r.run(t, d, g)
							name := fmt.Sprintf("%s shards=%d parallel=%v %s", r.name, shards, parallel, cfg)
							if got.Epochs != want.Epochs || got.Events != want.Events {
								t.Fatalf("%s: epochs/events = %d/%d, want %d/%d",
									name, got.Epochs, got.Events, want.Epochs, want.Events)
							}
							if !reflect.DeepEqual(got.Reports, want.Reports) {
								t.Fatalf("%s: reports diverge from serial unsharded oracle\n got: %v\nwant: %v",
									name, got.Reports, want.Reports)
							}
							if !reflect.DeepEqual(got.FinalSOS, want.FinalSOS) {
								t.Fatalf("%s: FinalSOS diverges from serial unsharded oracle\n got: %#v\nwant: %#v",
									name, got.FinalSOS, want.FinalSOS)
							}
						}
					}
				}
			}
		})
	}
}

// TestEffectiveShards pins who shards: the handshake reports this count.
func TestEffectiveShards(t *testing.T) {
	for lgName, mk := range lifeguards {
		_, sharded := mk().(core.ShardedLifeguard)
		want := 4
		if lgName == "taintcheck" || lgName == "lockset" {
			want = 1
		}
		if sharded != (want > 1) {
			t.Errorf("%s: implements ShardedLifeguard = %v", lgName, sharded)
		}
		d := &core.Driver{LG: mk(), Shards: 4}
		if got := d.EffectiveShards(); got != want {
			t.Errorf("%s: EffectiveShards() = %d at Shards = 4, want %d", lgName, got, want)
		}
		inc, err := d.NewIncremental(2)
		if err != nil {
			t.Fatal(err)
		}
		if got := inc.Shards(); got != want {
			t.Errorf("%s: Incremental.Shards() = %d, want %d", lgName, got, want)
		}
		inc.Close()
	}
}

// TestShardPropertySOS is the property-based satellite: for random grids and
// shard counts, the merged per-shard SOS of ReachingDefs and ReachingExprs
// equals the unsharded SOS at *every* epoch, and every piece contains only
// facts hashing to its shard (shard purity).
func TestShardPropertySOS(t *testing.T) {
	mks := map[string]func(g *epoch.Grid) core.Lifeguard{
		"reachingdefs":  func(g *epoch.Grid) core.Lifeguard { return core.NewReachingDefs(g) },
		"reachingexprs": func(g *epoch.Grid) core.Lifeguard { return core.NewReachingExprs(g) },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(1000 + seed))
				nthreads := 1 + rng.Intn(6)
				h := 1 + rng.Intn(10)
				tr := wideTrace(rng, nthreads)
				g, err := epoch.ChunkByCount(tr, h)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRun(mk(g), g)
				K := []int{2, 3, 5, 8}[rng.Intn(4)]
				got := (&core.Driver{LG: mk(g), KeepHistory: true, Shards: K, Parallel: seed%2 == 0}).Run(g)
				if len(got.SOSHistory) != len(want.SOSHistory) {
					t.Fatalf("seed=%d K=%d: history length %d, want %d",
						seed, K, len(got.SOSHistory), len(want.SOSHistory))
				}
				for l, s := range got.SOSHistory {
					ss, ok := s.(core.ShardedState)
					if !ok {
						t.Fatalf("seed=%d K=%d: SOSHistory[%d] is %T, not sharded", seed, K, l, s)
					}
					if len(ss) != K {
						t.Fatalf("seed=%d K=%d: SOSHistory[%d] has %d pieces", seed, K, l, len(ss))
					}
					merged := sets.NewSet()
					for k, piece := range ss {
						for x := range piece.(sets.Set) {
							if sets.ShardOf(x, K) != k {
								t.Fatalf("seed=%d K=%d epoch=%d: fact %#x in piece %d, belongs to %d",
									seed, K, l, x, k, sets.ShardOf(x, K))
							}
							merged.Add(x)
						}
					}
					if !reflect.DeepEqual(merged, want.SOSHistory[l]) {
						t.Fatalf("seed=%d K=%d: merged SOS at epoch %d diverges\n got: %v\nwant: %v",
							seed, K, l, merged, want.SOSHistory[l])
					}
				}
				if !reflect.DeepEqual(got.FinalSOS, want.FinalSOS) {
					t.Fatalf("seed=%d K=%d: FinalSOS diverges", seed, K)
				}
			}
		})
	}
}

// TestIncrementalErrFinished pins the misuse sentinel: feeding or finishing
// a finished or closed incremental fails with ErrFinished, for the serial
// and the pipelined driver alike.
func TestIncrementalErrFinished(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		for lgName, mk := range lifeguards {
			d := &core.Driver{LG: mk(), Parallel: parallel}
			inc, err := d.NewIncremental(2)
			if err != nil {
				t.Fatal(err)
			}
			row := []*epoch.Block{{Epoch: 0, Thread: 0}, {Epoch: 0, Thread: 1}}
			if _, err := inc.FeedEpoch(row); err != nil {
				t.Fatal(err)
			}
			if _, err := inc.Finish(); err != nil {
				t.Fatal(err)
			}
			if _, err := inc.FeedEpoch([]*epoch.Block{{Epoch: 1, Thread: 0}, {Epoch: 1, Thread: 1}}); !errors.Is(err, core.ErrFinished) {
				t.Errorf("%s parallel=%v: FeedEpoch after Finish: err = %v, want ErrFinished", lgName, parallel, err)
			}
			if _, err := inc.Finish(); !errors.Is(err, core.ErrFinished) {
				t.Errorf("%s parallel=%v: double Finish: err = %v, want ErrFinished", lgName, parallel, err)
			}
			inc.Close()
			if _, err := inc.Finish(); !errors.Is(err, core.ErrFinished) {
				t.Errorf("%s parallel=%v: Finish after Close: err = %v, want ErrFinished", lgName, parallel, err)
			}
		}
	}
}
