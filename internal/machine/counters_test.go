package machine

import (
	"fmt"
	"testing"
)

// touchSome drives a small mixed read/write workload across two CPUs so
// every counter family (clocks, stats, cache hit/miss/tick, page-table
// faults) moves.
func touchSome(m *Machine, a *Array) {
	c0, c1 := m.CPU(0), m.CPU(1)
	for i := 0; i < a.Len(); i++ {
		a.Set(c0, i, float64(i))
	}
	for i := 0; i < a.Len(); i++ {
		a.Get(c1, i)
	}
}

// TestAppendCountersLayout: the machine's table lists, per CPU, the
// clock and the seven CPUStats fields, then the page table's three
// totals; a snapshot has one value per entry and appends in place.
func TestAppendCountersLayout(t *testing.T) {
	m := defMachine(t)
	a := m.NewArray("x", 4096)
	touchSome(m, a)
	tab := m.CounterTable(nil)
	if want := m.NumCPUs()*8 + 3; len(tab) != want {
		t.Fatalf("table has %d entries, want %d", len(tab), want)
	}
	last := (m.NumCPUs() - 1) * 8
	for i, want := range map[int]string{0: "cpu0_clock", 1: "cpu0_accesses", 7: "cpu0_faults",
		8: "cpu1_clock", last + 7: fmt.Sprintf("cpu%d_faults", m.NumCPUs()-1),
		last + 8: "pt_migrations", last + 9: "pt_replicas", last + 10: "pt_collapses"} {
		if tab[i].Name != want {
			t.Errorf("entry %d named %q, want %q", i, tab[i].Name, want)
		}
	}
	snap := tab.Snapshot(nil)
	if len(snap) != len(tab) {
		t.Fatalf("Snapshot produced %d elements for %d entries", len(snap), len(tab))
	}
	if snap[0] != m.CPU(0).Now() || snap[2] != int64(m.CPU(0).Stat().L1Miss) {
		t.Errorf("cpu0 clock, l1_miss = %d, %d; want %d, %d", snap[0], snap[2], m.CPU(0).Now(), m.CPU(0).Stat().L1Miss)
	}
	// Re-appending onto an existing slice extends it in place.
	twice := tab.Snapshot(snap)
	if len(twice) != 2*len(tab) {
		t.Fatalf("second append: %d elements, want %d", len(twice), 2*len(tab))
	}
	var moved bool
	for _, v := range snap {
		if v != 0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("workload left every counter at zero")
	}
}

// TestApplyCounterDelta: fast-forwarding by k deltas lands every counter
// exactly on snapshot + k*delta — the arithmetic the steady-state
// extrapolation relies on.
func TestApplyCounterDelta(t *testing.T) {
	m := defMachine(t)
	a := m.NewArray("x", 4096)
	tab := m.CounterTable(nil)
	s0 := tab.Snapshot(nil)
	touchSome(m, a)
	s1 := tab.Snapshot(nil)

	delta := make([]int64, len(s1))
	for i := range s1 {
		delta[i] = s1[i] - s0[i]
	}
	const k = 5
	tab.Advance(delta, k)
	s2 := tab.Snapshot(nil)
	for i := range s2 {
		if want := s1[i] + k*delta[i]; s2[i] != want {
			t.Errorf("counter %s: got %d, want %d after fast-forward", tab[i].Name, s2[i], want)
		}
	}
	// The per-CPU clocks and stats advanced too, visible through the CPU API.
	if m.CPU(0).Now() <= s1[0] {
		t.Errorf("CPU 0 clock did not advance: %d", m.CPU(0).Now())
	}
	if got, want := m.CPU(1).Stat().Accesses, uint64(s1[9]+k*delta[9]); got != want {
		t.Errorf("CPU 1 accesses = %d, want %d", got, want)
	}
}

// TestFreeRun: in free-run mode data movement is real but nothing is
// charged — clocks, stats and page-reference counters all stay put.
func TestFreeRun(t *testing.T) {
	m := defMachine(t)
	a := m.NewArray("x", 4096)
	touchSome(m, a) // fault the pages in before entering free-run
	c := m.CPU(0)
	tab := m.CounterTable(nil)
	before := tab.Snapshot(nil)

	if m.FreeRun() {
		t.Fatal("free-run on by default")
	}
	m.SetFreeRun(true)
	if !m.FreeRun() {
		t.Fatal("SetFreeRun(true) not visible")
	}
	a.Set(c, 7, 42.5)
	runs := a.Data()[100:200]
	a.SetRun(c, 300, runs)
	if got := a.Get(c, 7); got != 42.5 {
		t.Errorf("free-run store lost: Get(7) = %v, want 42.5", got)
	}
	m.SetFreeRun(false)

	after := tab.Snapshot(nil)
	for i := range after {
		if after[i] != before[i] {
			t.Errorf("free-run charged counter %d: %d -> %d", i, before[i], after[i])
		}
	}
}

// TestRefCountingGate: with reference counting off, accesses charge time
// and advance stats but leave the per-page counter rows untouched, so
// the row-inclusive state hash is stationary while the home-only hash
// agrees (homes never move either way).
func TestRefCountingGate(t *testing.T) {
	m := defMachine(t)
	a := m.NewArray("x", 64*1024)
	touchSome(m, a) // place the pages
	n := m.AllocatedPages()

	if !m.RefCounting() {
		t.Fatal("reference counting off by default")
	}
	m.SetRefCounting(false)
	rows := m.PT.StateHash(n, true)
	clock := m.CPU(1).Now()
	m.CPU(1).FlushL1L2() // force real misses; rows bump only on misses
	for i := 0; i < a.Len(); i += 512 {
		a.Get(m.CPU(1), i)
	}
	if got := m.PT.StateHash(n, true); got != rows {
		t.Error("counter rows advanced with reference counting off")
	}
	if m.CPU(1).Now() == clock {
		t.Error("time was not charged with reference counting off")
	}

	m.SetRefCounting(true)
	m.CPU(1).FlushL1L2()
	for i := 0; i < a.Len(); i += 512 {
		a.Get(m.CPU(1), i)
	}
	if got := m.PT.StateHash(n, true); got == rows {
		t.Error("counter rows still frozen after SetRefCounting(true)")
	}
}

func TestMigrationCostLadder(t *testing.T) {
	m := defMachine(t)
	if m.PageMoveCost() <= 0 || m.ShootdownCost() <= 0 {
		t.Fatalf("non-positive cost components: move %d, shootdown %d",
			m.PageMoveCost(), m.ShootdownCost())
	}
	if m.MigrationCost() < m.PageMoveCost() {
		t.Errorf("MigrationCost %d below its PageMoveCost component %d",
			m.MigrationCost(), m.PageMoveCost())
	}
}
