package kmig

import (
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/vm"
)

// mkMachine builds a default machine with one 8-page array already
// faulted onto node 0, and returns the machine, the base vpn, and a
// convenience function that records misses from a node.
func mkMachine(t *testing.T) (*machine.Machine, uint64) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Placement = vm.WorstCase
	m := machine.MustNew(cfg)
	a := m.NewArray("x", 8*2048)
	lo, hi := a.PageRange()
	for p := lo; p < hi; p++ {
		m.PT.Resolve(p, 0)
	}
	return m, lo
}

func TestMigratesOnThresholdExcess(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 10})
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1) // remote node 5 hammers page lo
	}
	m.Settle(m.CPUs()[:1], 0)
	if e.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", e.Migrations())
	}
	if home := m.PT.Home(lo); home != 5 {
		t.Errorf("page homed on %d, want 5", home)
	}
}

func TestNoMigrationBelowThreshold(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 200})
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1)
	}
	m.Settle(m.CPUs()[:1], 0)
	if e.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0 (below threshold)", e.Migrations())
	}
}

func TestNoMigrationWhenHomeDominates(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 10})
	for i := 0; i < 300; i++ {
		m.PT.CountMissN(lo, 0, 1) // home node accesses dominate
	}
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1)
	}
	m.Settle(m.CPUs()[:1], 0)
	if e.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0 (home dominates)", e.Migrations())
	}
}

func TestThrottleLimitsMigrationsPerScan(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 10, MaxPerScan: 2, DecayEvery: -1, MinScanPS: -1})
	for p := lo; p < lo+8; p++ {
		for i := 0; i < 100; i++ {
			m.PT.CountMissN(p, 3, 1)
		}
	}
	m.Settle(m.CPUs()[:1], 0)
	if e.Migrations() != 2 {
		t.Errorf("migrations = %d, want 2 (throttled)", e.Migrations())
	}
	if e.Rejected() != 6 {
		t.Errorf("rejected = %d, want 6", e.Rejected())
	}
	// Next barrier moves two more.
	m.Settle(m.CPUs()[:1], 0)
	if e.Migrations() != 4 {
		t.Errorf("migrations after second scan = %d, want 4", e.Migrations())
	}
}

func TestDisabledEngineDoesNothing(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 10})
	e.SetEnabled(false)
	for i := 0; i < 500; i++ {
		m.PT.CountMissN(lo, 7, 1)
	}
	m.Settle(m.CPUs()[:1], 0)
	if e.Migrations() != 0 || e.Cost() != 0 {
		t.Errorf("disabled engine migrated %d pages at cost %d", e.Migrations(), e.Cost())
	}
	if m.PT.Home(lo) != 0 {
		t.Error("page moved while engine disabled")
	}
}

func TestMigrationCostChargedToBarrier(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 10})
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1)
	}
	tb := m.Settle(m.CPUs()[:1], 0)
	wantCost := m.MigrationCost()
	if e.Cost() != wantCost {
		t.Errorf("cost = %d, want %d", e.Cost(), wantCost)
	}
	if tb < wantCost {
		t.Errorf("barrier time %d does not include migration cost %d", tb, wantCost)
	}
}

func TestCountersResetAfterMigration(t *testing.T) {
	m, lo := mkMachine(t)
	Attach(m, Config{Threshold: 10})
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1)
	}
	m.Settle(m.CPUs()[:1], 0)
	row := m.PT.Counters(lo, nil)
	for n, c := range row {
		if c != 0 {
			t.Errorf("counter[%d] = %d after migration, want 0", n, c)
		}
	}
}

func TestScanEverySkipsBarriers(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 10, ScanEvery: 3, MinScanPS: -1})
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1)
	}
	m.Settle(m.CPUs()[:1], 0) // barrier 1: skipped
	m.Settle(m.CPUs()[:1], 0) // barrier 2: skipped
	if e.Migrations() != 0 {
		t.Fatalf("engine scanned before its interval: %d migrations", e.Migrations())
	}
	m.Settle(m.CPUs()[:1], 0) // barrier 3: scans
	if e.Migrations() != 1 {
		t.Errorf("migrations = %d after 3rd barrier, want 1", e.Migrations())
	}
}

func TestDecayHalvesCounters(t *testing.T) {
	m, lo := mkMachine(t)
	// DecayEvery=1: every scan halves. Threshold high so no migration
	// interferes.
	Attach(m, Config{Threshold: 2000, DecayEvery: 1, MinScanPS: -1})
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1)
	}
	m.Settle(m.CPUs()[:1], 0)
	if got := m.PT.Counters(lo, nil)[5]; got != 50 {
		t.Errorf("counter after one decay = %d, want 50", got)
	}
	m.Settle(m.CPUs()[:1], 0)
	if got := m.PT.Counters(lo, nil)[5]; got != 25 {
		t.Errorf("counter after two decays = %d, want 25", got)
	}
}

func TestEndToEndWorstCaseGetsRepaired(t *testing.T) {
	// Drive real accesses: every CPU streams over its own chunk of an
	// array initially placed entirely on node 0 (worst case). The engine
	// must migrate hot pages toward the accessors.
	cfg := machine.DefaultConfig()
	cfg.Placement = vm.WorstCase
	m := machine.MustNew(cfg)
	e := Attach(m, Config{Threshold: 32, MaxPerScan: 64, MinScanPS: -1})
	a := m.NewArray("x", 16*2048) // 16 pages, one per CPU
	for iter := 0; iter < 6; iter++ {
		for id := 0; id < 16; id++ {
			c := m.CPU(id)
			c.FlushCaches() // force memory traffic every pass
			from, to := id*2048, (id+1)*2048
			for i := from; i < to; i++ {
				a.Set(c, i, float64(i))
			}
		}
		m.Settle(m.CPUs(), 0)
	}
	if e.Migrations() == 0 {
		t.Fatal("no migrations under sustained remote traffic")
	}
	// Most pages must now be homed on their accessor's node.
	lo, _ := a.PageRange()
	good := 0
	for id := 0; id < 16; id++ {
		if m.PT.Home(lo+uint64(id)) == id/2 {
			good++
		}
	}
	if good < 10 {
		t.Errorf("only %d/16 pages repaired to their accessor's node", good)
	}
}

// TestCounterTable: the engine's table names its six counters in layout
// order, and Advance lands every one of them — lastScan included — on
// snapshot + k*delta, the arithmetic of the steady-state fast-forward.
func TestCounterTable(t *testing.T) {
	m, lo := mkMachine(t)
	e := Attach(m, Config{Threshold: 10, MinScanPS: 1})
	tab := e.CounterTable(nil)
	want := []string{"kmig_barriers", "kmig_scans", "kmig_migrations",
		"kmig_rejected", "kmig_cost_ps", "kmig_last_scan"}
	if len(tab) != len(want) {
		t.Fatalf("table has %d entries, want %d", len(tab), len(want))
	}
	for i, c := range tab {
		if c.Name != want[i] {
			t.Errorf("entry %d named %q, want %q", i, c.Name, want[i])
		}
	}
	// One migrating scan before the first snapshot and one after, so
	// every counter moves by one scan's worth.
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 5, 1)
	}
	tb := m.Settle(m.CPUs()[:1], 0)
	s0 := tab.Snapshot(nil)
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo+1, 3, 1)
	}
	m.Settle(m.CPUs()[:1], tb)
	s1 := tab.Snapshot(nil)
	delta := make([]int64, len(s1))
	for i := range s1 {
		delta[i] = s1[i] - s0[i]
	}
	if delta[0] != 1 || delta[1] != 1 || delta[2] != 1 || delta[4] != m.MigrationCost() {
		t.Fatalf("barriers, scans, migrations, cost deltas = %d, %d, %d, %d; want 1, 1, 1, %d",
			delta[0], delta[1], delta[2], delta[4], m.MigrationCost())
	}
	if delta[5] != tb {
		t.Fatalf("last-scan delta %d, want %d", delta[5], tb)
	}

	const k = 4
	tab.Advance(delta, k)
	s2 := tab.Snapshot(nil)
	for i := range s2 {
		if want := s1[i] + k*delta[i]; s2[i] != want {
			t.Errorf("counter %s: got %d, want %d after fast-forward", tab[i].Name, s2[i], want)
		}
	}
	if e.Migrations() != 2+k || e.Cost() != (2+k)*m.MigrationCost() {
		t.Errorf("migrations %d, cost %d; want %d, %d", e.Migrations(), e.Cost(), 2+k, (2+k)*m.MigrationCost())
	}
}
