package sets

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// materialize is the view by naive materialisation — clone the base,
// subtract del, union add: what an LSOS was before it became a view, and
// the oracle the view is checked against.
func (o *Overlay) materialize() *IntervalSet {
	c := o.base.Clone()
	c.SubtractInPlace(&o.del)
	c.UnionInPlace(&o.add)
	return c
}

// overlayModel pairs a view with the per-byte map it must agree with.
type overlayModel struct {
	t    *testing.T
	span uint64
	o    *Overlay
	ref  refSet
}

// boundaries returns, sorted and without repeats, every address at which
// base, add or del begins or ends, each with its two neighbours: the query
// endpoints where a view can go wrong.
func (m *overlayModel) boundaries() []uint64 {
	pts := []uint64{0, m.span}
	for _, s := range []*IntervalSet{m.o.base, &m.o.add, &m.o.del} {
		for _, iv := range s.ivs {
			pts = append(pts, iv.Lo-1, iv.Lo, iv.Lo+1, iv.Hi-1, iv.Hi, iv.Hi+1) // Lo = 0 wraps; dropped below
		}
	}
	slices.Sort(pts)
	pts = slices.Compact(pts)
	for len(pts) > 0 && pts[len(pts)-1] > m.span+1 {
		pts = pts[:len(pts)-1]
	}
	return pts
}

// check compares both range queries on [lo, hi) with the model, which holds
// n bytes of the range.
func (m *overlayModel) check(tag string, lo, hi, n uint64) {
	m.t.Helper()
	contains, overlaps := hi <= lo || n == hi-lo, n > 0
	if got := m.o.ContainsRange(lo, hi); got != contains {
		m.t.Fatalf("%s: ContainsRange(%#x,%#x) = %v, model %v (base %v add %v del %v)", tag, lo, hi, got, contains, m.o.base, &m.o.add, &m.o.del)
	}
	if got := m.o.OverlapsRange(lo, hi); got != overlaps {
		m.t.Fatalf("%s: OverlapsRange(%#x,%#x) = %v, model %v (base %v add %v del %v)", tag, lo, hi, got, overlaps, m.o.base, &m.o.add, &m.o.del)
	}
}

// checkQuery is check for one range, counting the model's bytes one by one.
func (m *overlayModel) checkQuery(tag string, lo, hi uint64) {
	m.t.Helper()
	n := uint64(0)
	for a := lo; a < hi; a++ {
		if m.ref[a] {
			n++
		}
	}
	m.check(tag, lo, hi, n)
}

// checkAll checks the overlay's own invariants, the materialised view, and
// both queries between every pair of boundary points (hi <= lo: the empty
// ranges).
func (m *overlayModel) checkAll(tag string) {
	m.t.Helper()
	checkForm(m.t, tag+" add", &m.o.add)
	checkForm(m.t, tag+" del", &m.o.del)
	if !intersect(&m.o.add, &m.o.del).Empty() {
		m.t.Fatalf("%s: add %v and del %v overlap", tag, &m.o.add, &m.o.del)
	}
	checkAgainstRef(m.t, tag+" materialized", m.o.materialize(), m.ref, m.span+2)
	below := make([]uint64, m.span+3) // below[a]: model bytes under a
	for a := uint64(0); a < m.span+2; a++ {
		below[a+1] = below[a]
		if m.ref[a] {
			below[a+1]++
		}
	}
	pts := m.boundaries()
	for _, lo := range pts {
		for _, hi := range pts {
			m.check(tag, lo, hi, below[max(hi, lo)]-below[lo])
		}
	}
}

// randOverlayBase draws a base of up to n intervals over [0, span), some of
// them adjacent to the next so coalescing across the base/add seam is hit.
func randOverlayBase(rng *rand.Rand, span uint64, n int) (*IntervalSet, refSet) {
	s, r := NewIntervalSet(), make(refSet)
	for i := rng.Intn(n + 1); i > 0; i-- {
		lo := rng.Uint64() % span
		hi := min(lo+1+rng.Uint64()%12, span)
		s.AddRange(lo, hi)
		r.addRange(lo, hi)
	}
	return s, r
}

// TestOverlayMatchesByteModel drives seeded mixes of every mutator and both
// queries against a per-byte map, and requires the base to come out of each
// run exactly as it went in.
func TestOverlayMatchesByteModel(t *testing.T) {
	const span = 160
	var view Overlay // reopened every seed, with the storage earlier seeds left it
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, ref := randOverlayBase(rng, span, int(seed%24))
		base0 := base.Clone()
		// Odd seeds read the base through a directory, small as it is.
		var dir *Directory
		if seed%2 == 1 {
			dir = new(Directory)
			dir.indexRuns(base.ivs, 1)
		}
		view.Reset(base, dir)
		m := &overlayModel{t: t, span: span, o: &view, ref: ref}
		randRange := func() (uint64, uint64) {
			lo := rng.Uint64() % span
			return lo, lo + rng.Uint64()%20 // one in twenty is empty
		}
		m.checkAll("pristine")
		for step := 0; step < 30; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				lo, hi := randRange()
				m.o.AddRange(lo, hi)
				m.ref.addRange(lo, hi)
			case op < 6:
				lo, hi := randRange()
				m.o.RemoveRange(lo, hi)
				m.ref.removeRange(lo, hi)
			case op == 6:
				s, r := randOverlayBase(rng, span, 5)
				m.o.AddSet(s)
				m.ref.union(r)
			case op == 7:
				s, r := randOverlayBase(rng, span, 5)
				m.o.RemoveSet(s)
				m.ref.subtract(r)
			default:
				lo, hi := randRange()
				m.checkQuery("random", lo, hi)
			}
			if step == 14 {
				m.checkAll("midway")
			}
		}
		m.checkAll("final")
		if !reflect.DeepEqual(base, base0) {
			t.Fatalf("seed %d: the base was written: %v, was %v", seed, base, base0)
		}
	}
}

// TestOverlayResetIsPristine pins what Reset promises: a reopened view
// carries nothing of its last use and reads exactly as its new base, though
// its own sets keep the storage that use grew.
func TestOverlayResetIsPristine(t *testing.T) {
	bases := []*IntervalSet{NewIntervalSet(Interval{0x100, 0x200}), NewIntervalSet(Interval{0x180, 0x280})}
	var o Overlay
	for i := 0; i < 4; i++ {
		base := bases[i%2]
		o.Reset(base, new(Directory)) // an empty directory: the base's own search
		lo, hi := base.ivs[0].Lo, base.ivs[0].Hi
		if !o.pristine() || o.base != base || o.dir != nil || !o.ContainsRange(lo, hi) || o.OverlapsRange(hi, hi+0x100) {
			t.Fatalf("round %d: a reset view is not its base: add %v del %v", i, &o.add, &o.del)
		}
		for j := uint64(0); j < 12; j++ { // past inline storage, both ways
			o.AddRange(0x1000+0x20*j, 0x1010+0x20*j)
			o.RemoveRange(0x100+0x10*j, 0x104+0x10*j)
		}
	}
}

// TestOverlaySharedBaseConcurrently is the first pass in miniature: T
// goroutines, each mutating and querying its own view over one shared base
// and its directory. Under -race it fails if any view path writes either;
// in race builds a reclaimed backing is also poisoned, so a view reading a
// stale one disagrees with its model.
func TestOverlaySharedBaseConcurrently(t *testing.T) {
	const T, span = 8, 4096
	rng := rand.New(rand.NewSource(1))
	base, baseRef := NewIntervalSet(), make(refSet)
	for i := 0; i < 200; i++ {
		lo := rng.Uint64() % span
		base.AddRange(lo, lo+1+rng.Uint64()%10)
	}
	for _, iv := range base.ivs {
		baseRef.addRange(iv.Lo, iv.Hi)
	}
	base0 := base.Clone()
	var dir Directory
	dir.Build(base)
	if len(dir.start) == 0 {
		t.Fatalf("a base of %d intervals has no directory", base.NumIntervals())
	}
	dir0 := dir
	dir0.start = slices.Clone(dir.start)
	var wg sync.WaitGroup
	errs := make(chan string, T)
	for g := 0; g < T; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			o := new(Overlay)
			for round := 0; round < 20; round++ {
				o.Reset(base, &dir)
				ref := baseRef.clone()
				for step := 0; step < 200; step++ {
					lo := rng.Uint64() % span
					hi := lo + rng.Uint64()%24
					switch rng.Intn(4) {
					case 0:
						o.AddRange(lo, hi)
						ref.addRange(lo, hi)
					case 1:
						o.RemoveRange(lo, hi)
						ref.removeRange(lo, hi)
					default:
						contains, overlaps := true, false
						for a := lo; a < hi; a++ {
							contains = contains && ref[a]
							overlaps = overlaps || ref[a]
						}
						if o.ContainsRange(lo, hi) != contains || o.OverlapsRange(lo, hi) != overlaps {
							errs <- "a view over the shared base disagrees with its model"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if !reflect.DeepEqual(base, base0) || !reflect.DeepEqual(dir, dir0) {
		t.Fatal("the shared base or its directory was written")
	}
}

// overlayFuzzOps replays a fuzz input as view operations: the first byte
// counts the base's intervals (mod 8) and, by its bit 3, gives the base a
// directory; each interval is two bytes (lo, length); every op after them
// is three bytes (kind, lo, length).
func overlayFuzzOps(t *testing.T, data []byte) {
	const span = 256
	base, ref := NewIntervalSet(), make(refSet)
	var dir *Directory
	if len(data) > 0 {
		if data[0]&8 != 0 {
			dir = new(Directory)
		}
		n := int(data[0] % 8)
		for data = data[1:]; n > 0 && len(data) >= 2; n, data = n-1, data[2:] {
			lo, hi := uint64(data[0]), uint64(data[0])+uint64(data[1]%16)
			base.AddRange(lo, hi)
			ref.addRange(lo, hi)
		}
	}
	base0 := base.Clone()
	if dir != nil {
		dir.indexRuns(base.ivs, 1)
	}
	m := &overlayModel{t: t, span: span + 16, o: new(Overlay), ref: ref}
	m.o.Reset(base, dir)
	for ; len(data) >= 3; data = data[3:] {
		lo := uint64(data[1])
		hi := lo + uint64(data[2]%32)
		switch data[0] % 4 {
		case 0:
			m.o.AddRange(lo, hi)
			m.ref.addRange(lo, hi)
		case 1:
			m.o.RemoveRange(lo, hi)
			m.ref.removeRange(lo, hi)
		default:
			m.checkQuery("fuzz", lo, hi)
		}
	}
	m.checkAll("fuzz end")
	if !reflect.DeepEqual(base, base0) {
		t.Fatalf("the base was written: %v, was %v", base, base0)
	}
}

// FuzzOverlay checks arbitrary operation sequences on a view against the
// per-byte model. The seed corpus (testdata/fuzz/FuzzOverlay) runs in every
// `go test`.
func FuzzOverlay(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(overlayFuzzOps)
}
