package machine

import (
	"reflect"
	"testing"

	"upmgo/internal/memsys"
	"upmgo/internal/topology"
)

// TestSetTopology: SetTopology parses a shape and overwrites exactly the
// shape-derived fields — levels, node count, CPUs per node — leaving the
// rest of the config (ladder, caches, placement) alone.
func TestSetTopology(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.SetTopology("hier64"); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 8 || cfg.CPUsPerNode != 8 {
		t.Errorf("hier64 = %d nodes × %d CPUs, want 8 × 8", cfg.Nodes, cfg.CPUsPerNode)
	}
	want := []topology.Level{
		{Name: "socket", Arity: 4, Hop: 2, ExtraPS: 2 * topology.DefaultExtraPerHopPS},
		{Name: "die", Arity: 2, Hop: 1, ExtraPS: topology.DefaultExtraPerHopPS},
	}
	if !reflect.DeepEqual(cfg.Topo, want) {
		t.Errorf("hier64 levels = %+v, want %+v", cfg.Topo, want)
	}
	if cfg.Lat.MemByHops[0] != memsys.Origin2000().MemByHops[0] {
		t.Error("SetTopology touched the latency ladder")
	}
	if err := cfg.SetTopology("bogus"); err == nil {
		t.Error("bogus shape accepted")
	}
}

// TestNewHierarchicalMachine builds the 64-CPU hier64 machine: the
// interconnect is a Hierarchy, the node count comes from the shape (any
// configured value is overridden), and the memory ladder is re-derived
// per hop distance as local latency + the crossed levels' extras.
func TestNewHierarchicalMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3 // bogus; the shape wins
	if err := cfg.SetTopology("hier64"); err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = 3
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Topo.(*topology.Hierarchy); !ok {
		t.Fatalf("interconnect is %T, want *topology.Hierarchy", m.Topo)
	}
	if m.Topo.Nodes() != 8 || m.NumCPUs() != 64 {
		t.Errorf("machine is %d nodes / %d CPUs, want 8 / 64", m.Topo.Nodes(), m.NumCPUs())
	}
	// hier64's levels: die (hop 1, +235 ns) inside socket (hop 2,
	// +470 ns). Distances 0..3 are all reachable, so the ladder reads
	// local, +die, +socket, +both.
	local := memsys.Origin2000().MemByHops[0]
	wantMB := []int64{
		local,
		local + topology.DefaultExtraPerHopPS,
		local + 2*topology.DefaultExtraPerHopPS,
		local + 3*topology.DefaultExtraPerHopPS,
	}
	if !reflect.DeepEqual(m.Lat.MemByHops, wantMB) {
		t.Errorf("derived ladder = %v, want %v", m.Lat.MemByHops, wantMB)
	}
	// The derivation must not alias the shared default ladder.
	if !reflect.DeepEqual(memsys.Origin2000().MemByHops, DefaultConfig().Lat.MemByHops) {
		t.Error("building a hierarchical machine mutated the default ladder")
	}
}

// TestNewCubeHierarchyKeepsLadder: a cube shape carries no extras, so the
// configured Origin2000 ladder stays in force — the property the
// bit-identity harness in internal/nas rests on.
func TestNewCubeHierarchyKeepsLadder(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.SetTopology("cube:2x2x2x2"); err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCPUs() != 16 {
		t.Errorf("origin cube = %d CPUs, want 16", m.NumCPUs())
	}
	if !reflect.DeepEqual(m.Lat.MemByHops, memsys.Origin2000().MemByHops) {
		t.Errorf("cube shape changed the ladder: %v", m.Lat.MemByHops)
	}
	// And its distance metric matches the hypercube's on every pair.
	hc, err := topology.NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if m.Topo.Hops(a, b) != hc.Hops(a, b) {
				t.Fatalf("Hops(%d,%d) = %d, hypercube %d", a, b, m.Topo.Hops(a, b), hc.Hops(a, b))
			}
		}
	}
}

// TestNewHierarchicalMachineRejectsTooManyCPUs: the coherence directory's
// 8-bit writer field caps machines at 256 CPUs; a 512-CPU machine must be
// rejected, not wrapped, and so must CPU counts whose product overflows.
// ParseShape already refuses such shapes, so the levels are set directly.
func TestNewHierarchicalMachineRejectsTooManyCPUs(t *testing.T) {
	for _, tc := range []struct {
		arities []int
		perNode int
	}{
		{[]int{8, 8}, 8},    // 512 CPUs
		{[]int{2}, 1 << 62}, // overflows int
		{[]int{4}, 1 << 62}, // wraps to 0
		{nil, 1 << 62},      // the hypercube path, 8 nodes
	} {
		cfg := DefaultConfig()
		cfg.CPUsPerNode = tc.perNode
		for _, a := range tc.arities {
			cfg.Topo = append(cfg.Topo, topology.Level{Name: "l", Arity: a, Hop: 1})
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%v nodes × %d CPUs accepted", tc.arities, tc.perNode)
		}
	}
	if err := new(Config).SetTopology("8x8x8"); err == nil {
		t.Error("SetTopology accepted a 512-CPU shape")
	}
}

// TestNewRejectsBadHierarchy: invalid levels surface as a construction
// error rather than a panic.
func TestNewRejectsBadHierarchy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = []topology.Level{{Name: "bad", Arity: 0, Hop: 1}}
	if _, err := New(cfg); err == nil {
		t.Error("zero-arity level accepted")
	}
}
