package vm

import (
	"testing"
	"testing/quick"

	"upmgo/internal/topology"
)

// mustCube builds the n-node hypercube the tests' page tables span.
func mustCube(t testing.TB, n int) *topology.Hierarchy {
	t.Helper()
	topo, err := topology.Cube(n)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newPT(t *testing.T, pages int, pol Policy) *PageTable {
	t.Helper()
	pt, err := New(mustCube(t, 8), Config{Pages: pages, Policy: pol, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestNewRejectsBadConfig(t *testing.T) {
	topo := mustCube(t, 8)
	if _, err := New(topo, Config{Pages: 0}); err == nil {
		t.Error("zero pages accepted")
	}
	if _, err := New(topo, Config{Pages: 4, CounterBits: 40}); err == nil {
		t.Error("40-bit counters accepted")
	}
}

func TestFirstTouchPlacesOnAccessor(t *testing.T) {
	pt := newPT(t, 16, FirstTouch)
	home, _, faulted := pt.Resolve(3, 5)
	if !faulted || home != 5 {
		t.Errorf("Resolve = (%d,%v), want (5,true)", home, faulted)
	}
	// Second access from elsewhere keeps the home.
	home, _, faulted = pt.Resolve(3, 1)
	if faulted || home != 5 {
		t.Errorf("second Resolve = (%d,%v), want (5,false)", home, faulted)
	}
}

func TestRoundRobinStripes(t *testing.T) {
	pt := newPT(t, 32, RoundRobin)
	for vpn := uint64(0); vpn < 32; vpn++ {
		home, _, _ := pt.Resolve(vpn, 7) // accessor must be irrelevant
		if home != int(vpn)%8 {
			t.Errorf("vpn %d placed on %d, want %d", vpn, home, vpn%8)
		}
	}
}

func TestRandomIsDeterministicAndBalanced(t *testing.T) {
	const pages = 4096
	pt1 := newPT(t, pages, Random)
	pt2 := newPT(t, pages, Random)
	for vpn := uint64(0); vpn < pages; vpn++ {
		h1, _, _ := pt1.Resolve(vpn, int(vpn)%8)
		h2, _, _ := pt2.Resolve(vpn, int(7-vpn%8)) // different accessors
		if h1 != h2 {
			t.Fatalf("random placement depends on accessor: vpn %d -> %d vs %d", vpn, h1, h2)
		}
	}
	hist := pt1.HomeHistogram()
	for n, c := range hist {
		// Expect pages/8 = 512 per node; allow generous imbalance.
		if c < 350 || c > 700 {
			t.Errorf("node %d holds %d pages, want ~512 (unbalanced random)", n, c)
		}
	}
}

func TestRandomSeedChangesPlacement(t *testing.T) {
	topo := mustCube(t, 8)
	a, _ := New(topo, Config{Pages: 256, Policy: Random, Seed: 1})
	b, _ := New(topo, Config{Pages: 256, Policy: Random, Seed: 2})
	diff := 0
	for vpn := uint64(0); vpn < 256; vpn++ {
		ha, _, _ := a.Resolve(vpn, 0)
		hb, _, _ := b.Resolve(vpn, 0)
		if ha != hb {
			diff++
		}
	}
	if diff == 0 {
		t.Error("two seeds produced identical random placements")
	}
}

func TestWorstCasePlacesEverythingOnNode0(t *testing.T) {
	pt := newPT(t, 64, WorstCase)
	for vpn := uint64(0); vpn < 64; vpn++ {
		if home, _, _ := pt.Resolve(vpn, int(vpn)%8); home != 0 {
			t.Fatalf("vpn %d placed on node %d, want 0", vpn, home)
		}
	}
	if hist := pt.HomeHistogram(); hist[0] != 64 {
		t.Errorf("node 0 holds %d pages, want 64", hist[0])
	}
}

func TestCountersSaturateAt11Bits(t *testing.T) {
	pt := newPT(t, 4, FirstTouch)
	pt.Resolve(0, 0)
	for i := 0; i < CounterMax11+500; i++ {
		pt.CountMissN(0, 3, 1)
	}
	row := pt.Counters(0, nil)
	if row[3] != CounterMax11 {
		t.Errorf("counter = %d, want saturation at %d", row[3], CounterMax11)
	}
	if row[0] != 0 {
		t.Errorf("untouched counter = %d, want 0", row[0])
	}
}

func TestConfigurableCounterWidth(t *testing.T) {
	pt, err := New(mustCube(t, 8), Config{Pages: 2, CounterBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pt.CountMissN(1, 2, 1)
	}
	if row := pt.Counters(1, nil); row[2] != 15 {
		t.Errorf("4-bit counter = %d, want 15", row[2])
	}
}

func TestResetCounters(t *testing.T) {
	pt := newPT(t, 4, FirstTouch)
	pt.CountMissN(2, 1, 1)
	pt.ResetCounters(2)
	if row := pt.Counters(2, nil); row[1] != 0 {
		t.Errorf("counter = %d after reset, want 0", row[1])
	}
	pt.CountMissN(1, 0, 1)
	pt.CountMissN(3, 7, 1)
	pt.ResetAllCounters()
	if pt.Counters(1, nil)[0] != 0 || pt.Counters(3, nil)[7] != 0 {
		t.Error("ResetAllCounters left residue")
	}
}

func TestMigrateMovesAndBumpsGeneration(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	pt.Resolve(5, 2)
	g0 := pt.Gen(5)
	res := pt.Migrate(5, 6)
	if !res.Moved || res.Dest != 6 {
		t.Fatalf("Migrate = %+v, want move to 6", res)
	}
	if pt.Home(5) != 6 {
		t.Errorf("home = %d, want 6", pt.Home(5))
	}
	if pt.Gen(5) != g0+1 {
		t.Errorf("generation = %d, want %d", pt.Gen(5), g0+1)
	}
	if pt.PrevHome(5) != 2 {
		t.Errorf("prev home = %d, want 2", pt.PrevHome(5))
	}
	if pt.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", pt.Migrations())
	}
}

func TestMigrateNoopCases(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	if res := pt.Migrate(1, 3); res.Moved {
		t.Error("migrated an unmapped page")
	}
	pt.Resolve(1, 3)
	if res := pt.Migrate(1, 3); res.Moved {
		t.Error("migrated a page onto its own home")
	}
	if pt.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0", pt.Migrations())
	}
}

func TestFreezeBlocksMigration(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	pt.Resolve(2, 0)
	pt.Freeze(2)
	if res := pt.Migrate(2, 5); res.Moved {
		t.Error("frozen page migrated")
	}
	if !pt.Frozen(2) {
		t.Error("Frozen() = false after Freeze")
	}
	pt.Unfreeze(2)
	if res := pt.Migrate(2, 5); !res.Moved {
		t.Error("unfrozen page refused to migrate")
	}
}

func TestCapacityForwarding(t *testing.T) {
	topo := mustCube(t, 8)
	pt, err := New(topo, Config{Pages: 16, Policy: WorstCase, CapacityPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	// WorstCase wants all 16 pages on node 0, but only 4 fit; the rest
	// overflow to nearby nodes.
	for vpn := uint64(0); vpn < 16; vpn++ {
		pt.Resolve(vpn, 3)
	}
	used := pt.Used()
	if used[0] != 4 {
		t.Errorf("node 0 holds %d pages, want its capacity 4", used[0])
	}
	var total int64
	for _, u := range used {
		if u > 4 {
			t.Errorf("a node exceeds capacity: %v", used)
		}
		total += u
	}
	if total != 16 {
		t.Errorf("total resident pages = %d, want 16", total)
	}
}

func TestMigrateRespectsCapacityWithForwarding(t *testing.T) {
	topo := mustCube(t, 8)
	pt, err := New(topo, Config{Pages: 9, Policy: RoundRobin, CapacityPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 9; vpn++ {
		pt.Resolve(vpn, 0) // one page per node, two on node 0
	}
	// Node 0 is full: migrating vpn 7 (home node 7) to node 0 must
	// forward it to the closest node to 0 with room (a 1-hop neighbour).
	res := pt.Migrate(7, 0)
	if !res.Moved {
		t.Fatal("migration refused outright; want best-effort forwarding")
	}
	if res.Dest == 0 {
		t.Error("page landed on a full node")
	}
	if pt.topoHops(0, res.Dest) != 1 {
		t.Errorf("forwarded to node %d at distance %d from target, want a 1-hop neighbour", res.Dest, pt.topoHops(0, res.Dest))
	}
}

// topoHops is a test helper exposing hop distance via the embedded topology.
func (pt *PageTable) topoHops(a, b int) int { return pt.topo.Hops(a, b) }

// Property: after any sequence of resolves, every mapped page has a valid
// home node and the used[] histogram matches the home[] histogram.
func TestUsedMatchesHomes(t *testing.T) {
	topo := mustCube(t, 4)
	f := func(seed uint64, accessors []uint8) bool {
		pt, err := New(topo, Config{Pages: 32, Policy: Random, Seed: seed})
		if err != nil {
			return false
		}
		for i, a := range accessors {
			pt.Resolve(uint64(i%32), int(a)%4)
		}
		hist := pt.HomeHistogram()
		used := pt.Used()
		for n := range hist {
			if int64(hist[n]) != used[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{FirstTouch: "ft", RoundRobin: "rr", Random: "rand", WorstCase: "wc"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy has empty string")
	}
}

// TestGrow: growing a table keeps every page it covered and adds
// unmapped, unfrozen pages with generation 0 and zero counters, to the
// replica masks and the write log too once they exist; counting a miss
// to a page past the table grows it first.
func TestGrow(t *testing.T) {
	pt := newPT(t, 2, FirstTouch)
	pt.Resolve(1, 3)
	pt.CountMissN(1, 3, 5)
	pt.SetWriteTracking(true)
	pt.Resolve(0, 2)
	pt.Replicate(0, 4)
	pt.Grow(6)
	pt.Grow(4) // never shrinks
	if pt.Pages() != 6 {
		t.Fatalf("Pages = %d after Grow(6), want 6", pt.Pages())
	}
	if pt.Home(1) != 3 || pt.Counters(1, nil)[3] != 5 || pt.Replicas(0) != 1<<4 {
		t.Error("growing lost a page's home, counters or replicas")
	}
	for vpn := uint64(2); vpn < 6; vpn++ {
		if pt.Home(vpn) != -1 || pt.PrevHome(vpn) != -1 || pt.Gen(vpn) != 0 || pt.Frozen(vpn) ||
			pt.Replicas(vpn) != 0 || pt.Written(vpn) {
			t.Errorf("grown page %d is not fresh", vpn)
		}
		for n, c := range pt.Counters(vpn, nil) {
			if c != 0 {
				t.Errorf("grown page %d node %d counter %d", vpn, n, c)
			}
		}
	}
	pt.MarkWritten(5)
	if !pt.Written(5) {
		t.Error("write to a grown page not logged")
	}
	pt.CountMissN(9, 1, 2)
	if pt.Pages() != 10 || pt.Counters(9, nil)[1] != 2 || pt.Home(9) != -1 {
		t.Errorf("counting a miss on page 9 of %d: counter %d, home %d", pt.Pages(), pt.Counters(9, nil)[1], pt.Home(9))
	}
}
