package topology

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// genHierarchy decodes a random but always-valid hierarchy from raw fuzz
// bytes: 1..4 levels, arities 1..4, hop weights 1..4, occasional extra
// latency. quick.Check drives it with random values.
func genHierarchy(raw []byte, r *rand.Rand) *Hierarchy {
	nl := 1 + int(r.Int31n(4))
	levels := make([]Level, nl)
	for i := range levels {
		var b byte
		if len(raw) > 0 {
			b = raw[i%len(raw)]
		} else {
			b = byte(r.Int31n(256))
		}
		levels[i] = Level{
			Arity: 1 + int(b&3),
			Hop:   1 + int((b>>2)&3),
		}
		if b&0x40 != 0 {
			levels[i].ExtraPS = int64(levels[i].Hop) * DefaultExtraPerHopPS
		}
	}
	return MustHierarchy(levels)
}

// Property: Hops is a metric on every generated hierarchy — zero iff
// equal, symmetric, triangle inequality.
func TestHierarchyHopsIsAMetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(raw []byte, ai, bi, ci uint16) bool {
		h := genHierarchy(raw, r)
		n := h.Nodes()
		a, b, c := int(ai)%n, int(bi)%n, int(ci)%n
		if (h.Hops(a, b) == 0) != (a == b) {
			return false
		}
		if h.Hops(a, b) != h.Hops(b, a) {
			return false
		}
		return h.Hops(a, c) <= h.Hops(a, b)+h.Hops(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// hamming is the hypercube's distance: the number of differing id bits.
func hamming(a, b int) int { return bits.OnesCount(uint(a ^ b)) }

// Property: Cube(2^k) is the 2^k-node hypercube — Hamming distances, a
// diameter of k, and ByDistance equal to a brute-force sort of all nodes
// by (distance, id). The default machine and every bit-identity proof
// stand on this.
func TestBinaryHierarchyMatchesHypercube(t *testing.T) {
	for k := 1; k <= 6; k++ {
		n := 1 << k
		h := mustCube(t, n)
		if h.Nodes() != n || h.MaxHops() != k {
			t.Fatalf("k=%d: nodes/diameter %d/%d, want %d/%d", k, h.Nodes(), h.MaxHops(), n, k)
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if got, want := h.Hops(a, b), hamming(a, b); got != want {
					t.Fatalf("k=%d: Hops(%d,%d) = %d, want %d", k, a, b, got, want)
				}
			}
			want := make([]int, n)
			for b := range want {
				want[b] = b
			}
			sort.SliceStable(want, func(i, j int) bool { return hamming(a, want[i]) < hamming(a, want[j]) })
			if got := h.ByDistance(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: ByDistance(%d) = %v, want %v", k, a, got, want)
			}
		}
	}
}

// A 1-level hierarchy of 2^k nodes is the uniform (complete-graph) case:
// hypercube distances survive only where they are 0 or the full level hop.
func TestOneLevelHierarchyDistances(t *testing.T) {
	h := MustHierarchy([]Level{{Arity: 8, Hop: 1}})
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			want := 0
			if a != b {
				want = 1
			}
			if got := h.Hops(a, b); got != want {
				t.Fatalf("Hops(%d,%d) = %d, want %d", a, b, got, want)
			}
			if hamming(a, b) <= 1 && h.Hops(a, b) != hamming(a, b) {
				t.Fatalf("Hops(%d,%d) diverges from hypercube at distance <= 1", a, b)
			}
		}
	}
	if h.MaxHops() != 1 {
		t.Fatalf("MaxHops = %d, want 1", h.MaxHops())
	}
}

func TestHierarchyKnownDistances(t *testing.T) {
	// 4 sockets × 2 dies: socket crossings cost 2, die crossings 1.
	h := MustHierarchy([]Level{
		{Name: "socket", Arity: 4, Hop: 2},
		{Name: "die", Arity: 2, Hop: 1},
	})
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1}, // same socket, other die
		{0, 2, 2}, // other socket, same die digit
		{0, 3, 3}, // other socket, other die
		{5, 4, 1},
		{7, 1, 2},
	}
	for _, c := range cases {
		if got := h.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if h.MaxHops() != 3 {
		t.Errorf("MaxHops = %d, want 3", h.MaxHops())
	}
}

func TestHierarchyHopsPanicsOutOfRange(t *testing.T) {
	h := MustHierarchy([]Level{{Arity: 2, Hop: 1}, {Arity: 2, Hop: 1}})
	for _, c := range [][2]int{{0, 4}, {4, 0}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hops(%d,%d) did not panic", c[0], c[1])
				}
			}()
			h.Hops(c[0], c[1])
		}()
	}
}

func TestNewHierarchyRejectsBadLevels(t *testing.T) {
	cases := [][]Level{
		nil,
		{{Arity: 0, Hop: 1}},
		{{Arity: 2, Hop: 0}},
		{{Arity: 2, Hop: 1, ExtraPS: -1}},
		{{Arity: 64, Hop: 1}, {Arity: 64, Hop: 1}}, // 4096 > MaxHierarchyNodes
	}
	for i, levels := range cases {
		if _, err := NewHierarchy(levels); err == nil {
			t.Errorf("case %d: NewHierarchy(%v) succeeded, want error", i, levels)
		}
	}
}

func TestMustHierarchyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHierarchy(nil) did not panic")
		}
	}()
	MustHierarchy(nil)
}

// Property: ByDistance is a permutation sorted by distance with self
// first, on every generated hierarchy.
func TestHierarchyByDistanceSorted(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(raw []byte, ai uint16) bool {
		h := genHierarchy(raw, r)
		a := int(ai) % h.Nodes()
		order := h.ByDistance(a)
		if len(order) != h.Nodes() || order[0] != a {
			return false
		}
		seen := make(map[int]bool)
		prev := -1
		for _, b := range order {
			if seen[b] {
				return false
			}
			seen[b] = true
			d := h.Hops(a, b)
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyLevelsCopies: NewHierarchy keeps its own copy of the
// levels, so a caller reusing its slice cannot reshape a built machine.
func TestHierarchyLevelsCopies(t *testing.T) {
	ls := []Level{{Name: "socket", Arity: 2, Hop: 1}}
	h := MustHierarchy(ls)
	ls[0].Arity = 99
	if h.levels[0].Arity != 2 || h.Nodes() != 2 {
		t.Error("NewHierarchy aliased the caller's levels")
	}
}

func TestLatencyExtras(t *testing.T) {
	// Doubling hops: die 1 (235 ns), socket 2 (470 ns); distances 0..3
	// decompose uniquely.
	h := MustHierarchy([]Level{
		{Name: "socket", Arity: 4, Hop: 2, ExtraPS: 470_000},
		{Name: "die", Arity: 2, Hop: 1, ExtraPS: 235_000},
	})
	want := []int64{0, 235_000, 470_000, 705_000}
	got := h.LatencyExtras()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LatencyExtras = %v, want %v", got, want)
	}

	// No extras anywhere -> nil: the machine keeps its configured ladder.
	if ex := MustHierarchy([]Level{{Arity: 2, Hop: 1}}).LatencyExtras(); ex != nil {
		t.Fatalf("LatencyExtras without ExtraPS = %v, want nil", ex)
	}

	// Unreachable distances inherit the previous rung: one 4-ary level
	// with hop 3 reaches only distances 0 and 3.
	h2 := MustHierarchy([]Level{{Arity: 4, Hop: 3, ExtraPS: 700_000}})
	want2 := []int64{0, 0, 0, 700_000}
	if got2 := h2.LatencyExtras(); !reflect.DeepEqual(got2, want2) {
		t.Fatalf("LatencyExtras (sparse) = %v, want %v", got2, want2)
	}
}
