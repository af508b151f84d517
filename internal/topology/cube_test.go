package topology

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// mustCube is Cube for the statically known sizes of these tests.
func mustCube(t testing.TB, n int) *Hierarchy {
	t.Helper()
	h, err := Cube(n)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// Cube builds the hypercube of every power-of-two size.
func TestNewHypercubeValidSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		if h := mustCube(t, n); h.Nodes() != n {
			t.Errorf("Nodes() = %d, want %d", h.Nodes(), n)
		}
	}
}

// Cube rejects every other size with the node-count error.
func TestNewHypercubeRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, 3, 5, 6, 7, 9, 12, 100} {
		_, err := Cube(n)
		if err == nil {
			t.Errorf("Cube(%d) succeeded, want error", n)
		} else if want := fmt.Sprintf("topology: node count %d is not a power of two", n); err.Error() != want {
			t.Errorf("Cube(%d): %q, want %q", n, err, want)
		}
	}
}

// TestHypercubeLevels: Cube's levels are those ParseShape gives the
// matching "cube:" spec, names included, so the default machine and a
// -topo cube shape build the same hierarchy.
func TestHypercubeLevels(t *testing.T) {
	for _, c := range []struct {
		n    int
		spec string
	}{
		{1, "cube:1x2"},
		{4, "cube:2x2x4"},
		{8, "cube:2x2x2x2"},
		{16, "cube:2x2x2x2x1"},
		{64, "cube:2x2x2x2x2x2x1"},
	} {
		sh, err := ParseShape(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustCube(t, c.n); !reflect.DeepEqual(got, MustHierarchy(sh.Levels)) {
			t.Errorf("Cube(%d) levels %+v, want %s's %+v", c.n, got.levels, c.spec, sh.Levels)
		}
	}
}

func TestHopsKnownValues(t *testing.T) {
	h := mustCube(t, 8)
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 2, 1},
		{0, 3, 2},
		{0, 7, 3},
		{5, 2, 3}, // 101 ^ 010 = 111
		{6, 4, 1},
	}
	for _, c := range cases {
		if got := h.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsPanicsOutOfRange(t *testing.T) {
	h := mustCube(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("Hops(0,4) did not panic")
		}
	}()
	h.Hops(0, 4)
}

// Property: hop distance is a metric (symmetric, zero iff equal, triangle
// inequality) on the paper's 8-node cube and beyond.
func TestHopsIsAMetric(t *testing.T) {
	h := mustCube(t, 16)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%16, int(b)%16, int(c)%16
		if h.Hops(x, y) != h.Hops(y, x) {
			return false
		}
		if (h.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return h.Hops(x, z) <= h.Hops(x, y)+h.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByDistanceOrderingAndCompleteness(t *testing.T) {
	h := mustCube(t, 16)
	for a := 0; a < 16; a++ {
		order := h.ByDistance(a)
		if len(order) != 16 {
			t.Fatalf("ByDistance(%d) returned %d nodes", a, len(order))
		}
		if order[0] != a {
			t.Errorf("ByDistance(%d)[0] = %d, want self", a, order[0])
		}
		seen := make(map[int]bool)
		prev := -1
		for _, b := range order {
			if seen[b] {
				t.Fatalf("ByDistance(%d) repeats node %d", a, b)
			}
			seen[b] = true
			d := h.Hops(a, b)
			if d < prev {
				t.Fatalf("ByDistance(%d) not sorted: node %d at distance %d after distance %d", a, b, d, prev)
			}
			prev = d
		}
	}
}

func TestMaxHops(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 0}, {2, 1}, {8, 3}, {16, 4}} {
		if got := mustCube(t, c.n).MaxHops(); got != c.want {
			t.Errorf("MaxHops(%d nodes) = %d, want %d", c.n, got, c.want)
		}
	}
}

// Property: every node has exactly dim neighbours at distance 1, and the
// number of nodes at distance d from any node is C(dim, d).
func TestDistanceDistribution(t *testing.T) {
	h := mustCube(t, 32) // dim 5
	binom := []int{1, 5, 10, 10, 5, 1}
	for a := 0; a < 32; a++ {
		counts := make([]int, 6)
		for b := 0; b < 32; b++ {
			counts[h.Hops(a, b)]++
		}
		for d, want := range binom {
			if counts[d] != want {
				t.Errorf("node %d: %d nodes at distance %d, want %d", a, counts[d], d, want)
			}
		}
	}
}
