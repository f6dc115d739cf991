package sets

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// none marks a byte no thread covers in the RowUnion byte model.
const none = -2

// checkRowUnion checks u, built from srcs (srcs[th] are the sets thread th
// added), over the bytes [base, base+span) that hold every set: the runs'
// form, the owner of every byte against a per-byte model, and
// OverlapsOther against the model and against the per-thread exclusive
// unions the wing folds used to build, for queries at every run boundary
// and its neighbours and at random.
func checkRowUnion(t *testing.T, tag string, u *RowUnion, srcs [][]*IntervalSet, base, span uint64, rng *rand.Rand) {
	t.Helper()
	T := len(srcs)
	// The model: own[x] is the one thread covering base+x, many or none.
	own := make([]int, span)
	for x := range own {
		own[x] = none
	}
	for th, ss := range srcs {
		for _, s := range ss {
			for _, iv := range s.ivs {
				for a := iv.Lo; a < iv.Hi; a++ {
					switch o := &own[a-base]; *o {
					case none:
						*o = th
					case th:
					default:
						*o = many
					}
				}
			}
		}
	}
	// The runs: sorted, disjoint, non-empty, touching ones of different
	// owners, each byte owned as the model says.
	if len(u.ivs) != len(u.owner) {
		t.Fatalf("%s: %d runs, %d owners", tag, len(u.ivs), len(u.owner))
	}
	got := make([]int, span)
	for x := range got {
		got[x] = none
	}
	for i, iv := range u.ivs {
		if iv.Hi <= iv.Lo || iv.Lo < base || iv.Hi > base+span {
			t.Fatalf("%s: run %d is %v, outside [%#x,%#x)", tag, i, iv, base, base+span)
		}
		if i > 0 && (iv.Lo < u.ivs[i-1].Hi || iv.Lo == u.ivs[i-1].Hi && u.owner[i] == u.owner[i-1]) {
			t.Fatalf("%s: runs %d and %d (%v %d, %v %d) overlap or should be one", tag, i-1, i, u.ivs[i-1], u.owner[i-1], iv, u.owner[i])
		}
		if o := u.owner[i]; o != many && (o < 0 || int(o) >= T) {
			t.Fatalf("%s: run %d has owner %d of %d threads", tag, i, o, T)
		}
		for a := iv.Lo; a < iv.Hi; a++ {
			got[a-base] = int(u.owner[i])
		}
	}
	if !slices.Equal(got, own) {
		for x := range got {
			if got[x] != own[x] {
				t.Fatalf("%s: byte %#x owned by %d, model %d (runs %v, owners %v)", tag, base+uint64(x), got[x], own[x], u.ivs, u.owner)
			}
		}
	}
	if (len(u.dir.start) > 0) != (len(u.ivs) > 0) {
		t.Fatalf("%s: %d runs, directory of %d entries", tag, len(u.ivs), len(u.dir.start))
	}
	if u.Empty() != (len(u.ivs) == 0) {
		t.Fatalf("%s: Empty disagrees with %d runs", tag, len(u.ivs))
	}

	// Query endpoints: every run boundary with its neighbours, the ends of
	// the span, and random points.
	pts := []uint64{base, base + span}
	for _, iv := range u.ivs {
		pts = append(pts, iv.Lo-1, iv.Lo, iv.Lo+1, iv.Hi-1, iv.Hi, iv.Hi+1)
	}
	for i := 0; i < 16; i++ {
		pts = append(pts, base+uint64(rng.Int63n(int64(span)+1)))
	}
	pts = slices.DeleteFunc(pts, func(x uint64) bool { return x < base || x > base+span })
	slices.Sort(pts)
	pts = slices.Compact(pts)
	if len(pts) > 48 { // keep the pairs quadratic in a small number
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		pts = pts[:48]
	}

	// The threads asked about: every thread of a small row, a sample of a
	// large one, and one that added nothing.
	qs := []int{T}
	for q := 0; q < T; q++ {
		if T <= 8 || rng.Intn(T) < 6 {
			qs = append(qs, q)
		}
	}
	other := make([]int, span+1) // other[x]: bytes below base+x some thread but q covers
	for _, q := range qs {
		excl := new(IntervalSet)
		for th, ss := range srcs {
			if th != q {
				for _, s := range ss {
					excl.UnionInPlace(s)
				}
			}
		}
		for x, o := range own {
			other[x+1] = other[x] + b2i(o != none && o != q)
		}
		for _, lo := range pts {
			for _, hi := range pts {
				want := hi > lo && other[hi-base] > other[lo-base]
				if g := u.OverlapsOther(q, lo, hi); g != want {
					t.Fatalf("%s: OverlapsOther(%d, %#x, %#x) = %v, byte model %v (runs %v, owners %v)", tag, q, lo, hi, g, want, u.ivs, u.owner)
				}
				if e := excl.OverlapsRange(lo, hi); e != want {
					t.Fatalf("%s: thread %d's exclusive union overlaps [%#x,%#x) = %v, byte model %v", tag, q, lo, hi, e, want)
				}
			}
		}
	}
}

// buildRow builds u from srcs, as a wing fold does.
func buildRow(u *RowUnion, srcs [][]*IntervalSet) int {
	for th, ss := range srcs {
		for _, s := range ss {
			u.Add(th, s)
		}
	}
	return u.Build()
}

// randRow draws T threads' sets inside [base, base+span): each thread adds
// zero to two sets (addrcheck adds a block's allocations and its frees,
// which may overlap), of up to n intervals each.
func randRow(rng *rand.Rand, T int, base, span uint64, n int) [][]*IntervalSet {
	srcs := make([][]*IntervalSet, T)
	for th := range srcs {
		for k := rng.Intn(3); k > 0; k-- {
			s := new(IntervalSet)
			for i := rng.Intn(n + 1); i > 0; i-- {
				lo := uint64(rng.Int63n(int64(span)))
				s.AddRange(base+lo, base+min(span, lo+1+uint64(rng.Intn(24))))
			}
			srcs[th] = append(srcs[th], s)
		}
	}
	return srcs
}

// TestRowUnionMatchesByteModel checks the thread-tagged row union against a
// per-byte model and against per-thread exclusive unions, for rows of 1 to
// 70 threads (past what a 64-bit mask of threads could tag), sparse and
// dense, at the bottom and top of the address space.
// One union is reused throughout, as the engine reuses each window slot's.
func TestRowUnionMatchesByteModel(t *testing.T) {
	var u RowUnion
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		T := []int{1, 2, 3, 4, 8, 65, 70}[seed%7]
		span, n := uint64(512), 6
		if seed%3 == 0 {
			span, n = 4096, 80 // hundreds of runs
		}
		base := []uint64{0, 1 << 60, math.MaxUint64 - span}[seed%5%3]
		srcs := randRow(rng, T, base, span, n)
		runs := buildRow(&u, srcs)
		if runs != len(u.ivs) {
			t.Fatalf("seed %d: Build returned %d, %d runs", seed, runs, len(u.ivs))
		}
		checkRowUnion(t, fmt.Sprintf("seed %d (T = %d)", seed, T), &u, srcs, base, span, rng)
	}
	if buildRow(&u, make([][]*IntervalSet, 4)); !u.Empty() || len(u.dir.start) != 0 {
		t.Fatalf("a row of empty sets built %d runs", len(u.ivs))
	}
}

// TestRowUnionRebuildAllocFree: a union rebuilt in place over rows no
// larger than one it has held allocates nothing.
func TestRowUnionRebuildAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big, small := randRow(rng, 8, 0, 1<<14, 200), randRow(rng, 3, 0, 512, 4)
	var u RowUnion
	buildRow(&u, big)
	if allocs := testing.AllocsPerRun(20, func() {
		buildRow(&u, small)
		buildRow(&u, big)
	}); allocs != 0 {
		t.Fatalf("rebuilding a row union in place: %v allocs, want 0", allocs)
	}
}

// FuzzRowUnion checks the row union against the byte model on rows the
// fuzzer draws: the first byte picks the thread count (1 to 70) and bits of
// the second the address base (0, 2⁶⁰ or the top of the address space);
// every following triple adds [lo, lo+len) to thread th's first or second
// set.
func FuzzRowUnion(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 10, 1, 5, 10, 2, 8, 4})
	f.Add([]byte{69, 2, 68, 0, 40, 67, 20, 40, 66, 30, 10, 64, 0, 255})
	f.Add([]byte{1, 1, 0, 0, 255, 0, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 3*512 {
			return
		}
		const span = 320
		T := 1 + int(data[0])%70
		base := []uint64{0, 1 << 60, math.MaxUint64 - span, 0}[data[1]&3]
		srcs := make([][]*IntervalSet, T)
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			th, second := int(rest[0])%T, rest[0]&0x80 != 0
			lo := uint64(rest[1])
			hi := min(span, lo+1+uint64(rest[2]%64))
			for len(srcs[th]) < 1+b2i(second) {
				srcs[th] = append(srcs[th], new(IntervalSet))
			}
			srcs[th][b2i(second)].AddRange(base+lo, base+hi)
		}
		var u RowUnion
		buildRow(&u, srcs)
		checkRowUnion(t, "fuzz", &u, srcs, base, span, rand.New(rand.NewSource(int64(len(data)))))
		// Rebuilt in its own storage, the union is the same.
		runs := slices.Clone(u.ivs)
		buildRow(&u, srcs)
		if !slices.Equal(runs, u.ivs) {
			t.Fatalf("rebuilding the same row gave %v, then %v", runs, u.ivs)
		}
	})
}
