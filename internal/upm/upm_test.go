package upm

import (
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/vm"
)

// mk builds a worst-case-placed machine with one hot array of npages
// pages, all faulted onto node 0, registered with a fresh engine.
func mk(t *testing.T, npages int, opt Options) (*machine.Machine, *UPM, uint64) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Placement = vm.WorstCase
	m := machine.MustNew(cfg)
	a := m.NewArray("x", npages*2048)
	lo, hi := a.PageRange()
	for p := lo; p < hi; p++ {
		m.PT.Resolve(p, 0)
	}
	u := Init(m, opt)
	u.MemRefCnt(lo, hi)
	return m, u, lo
}

func hammer(m *machine.Machine, vpn uint64, node int, n int) {
	for i := 0; i < n; i++ {
		m.PT.CountMissN(vpn, node, 1)
	}
}

func TestMigrateMemoryMovesDominatedPages(t *testing.T) {
	m, u, lo := mk(t, 4, Options{})
	hammer(m, lo, 3, 200)   // page 0: node 3 dominates
	hammer(m, lo, 0, 50)    // some home accesses, ratio 4 > thr 2
	hammer(m, lo+1, 0, 200) // page 1: home dominates
	hammer(m, lo+2, 5, 100) // page 2: node 5 only
	// page 3: cold.
	c := m.CPU(0)
	n := u.MigrateMemory(c)
	if n != 2 {
		t.Fatalf("MigrateMemory moved %d pages, want 2", n)
	}
	if m.PT.Home(lo) != 3 {
		t.Errorf("page 0 homed on %d, want 3", m.PT.Home(lo))
	}
	if m.PT.Home(lo+1) != 0 {
		t.Errorf("page 1 moved; want kept on 0")
	}
	if m.PT.Home(lo+2) != 5 {
		t.Errorf("page 2 homed on %d, want 5", m.PT.Home(lo+2))
	}
	if m.PT.Home(lo+3) != 0 {
		t.Errorf("cold page moved")
	}
}

func TestMigrateMemoryRespectsThreshold(t *testing.T) {
	m, u, lo := mk(t, 1, Options{Threshold: 4})
	hammer(m, lo, 0, 100)
	hammer(m, lo, 2, 300) // ratio 3 < thr 4
	if n := u.MigrateMemory(m.CPU(0)); n != 0 {
		t.Errorf("moved %d pages below threshold, want 0", n)
	}
}

func TestMigrateMemoryIgnoresColdPages(t *testing.T) {
	m, u, lo := mk(t, 1, Options{MinAccesses: 50})
	hammer(m, lo, 4, 30) // hot-ish but below MinAccesses
	if n := u.MigrateMemory(m.CPU(0)); n != 0 {
		t.Errorf("moved %d cold pages, want 0", n)
	}
}

func TestSelfDeactivation(t *testing.T) {
	m, u, lo := mk(t, 2, Options{})
	hammer(m, lo, 3, 200)
	c := m.CPU(0)
	if n := u.MigrateMemory(c); n != 1 {
		t.Fatalf("first invocation moved %d, want 1", n)
	}
	if !u.Active() {
		t.Fatal("engine deactivated while still migrating")
	}
	// No new traffic: second invocation finds nothing and deactivates.
	if n := u.MigrateMemory(c); n != 0 {
		t.Fatalf("second invocation moved %d, want 0", n)
	}
	if u.Active() {
		t.Error("engine still active after an empty invocation")
	}
	// Further calls are no-ops.
	hammer(m, lo, 5, 500)
	if n := u.MigrateMemory(c); n != 0 {
		t.Error("deactivated engine migrated")
	}
}

func TestCountersResetBetweenInvocations(t *testing.T) {
	m, u, lo := mk(t, 1, Options{})
	hammer(m, lo, 3, 200)
	u.MigrateMemory(m.CPU(0))
	if got := m.PT.Counters(lo, nil)[3]; got != 0 {
		t.Errorf("counters not reset after MigrateMemory: %d", got)
	}
}

func TestPingPongFreeze(t *testing.T) {
	m, u, lo := mk(t, 1, Options{})
	c := m.CPU(0)
	// Invocation 1: page moves 0 -> 3.
	hammer(m, lo, 3, 200)
	if n := u.MigrateMemory(c); n != 1 || m.PT.Home(lo) != 3 {
		t.Fatalf("setup move failed: n=%d home=%d", n, m.PT.Home(lo))
	}
	// Invocation 2: trace says move back 3 -> 0: that is a bounce; the
	// page must freeze instead of moving.
	hammer(m, lo, 0, 200)
	if n := u.MigrateMemory(c); n != 0 {
		t.Fatalf("bouncing page migrated (n=%d)", n)
	}
	if !m.PT.Frozen(lo) {
		t.Error("bouncing page not frozen")
	}
	if m.PT.Home(lo) != 3 {
		t.Errorf("frozen page moved to %d", m.PT.Home(lo))
	}
	if u.Stats().Frozen != 1 {
		t.Errorf("frozen stat = %d, want 1", u.Stats().Frozen)
	}
}

func TestMoveToThirdNodeIsNotABounce(t *testing.T) {
	m, u, lo := mk(t, 1, Options{})
	c := m.CPU(0)
	hammer(m, lo, 3, 200)
	u.MigrateMemory(c)
	hammer(m, lo, 6, 400) // different node: a phase change, not a bounce
	if n := u.MigrateMemory(c); n != 1 {
		t.Errorf("move to a third node suppressed (n=%d)", n)
	}
	if m.PT.Home(lo) != 6 {
		t.Errorf("home = %d, want 6", m.PT.Home(lo))
	}
}

func TestOverheadChargedToCallingCPU(t *testing.T) {
	m, u, lo := mk(t, 8, Options{})
	hammer(m, lo, 3, 200)
	c := m.CPU(0)
	before := c.Now()
	u.MigrateMemory(c)
	elapsed := c.Now() - before
	wantMin := m.PageMoveCost() + m.ShootdownCost()
	if elapsed < wantMin {
		t.Errorf("charged %d ps, want at least the migration cost %d", elapsed, wantMin)
	}
	if u.Overhead() != elapsed {
		t.Errorf("Overhead() = %d, want %d", u.Overhead(), elapsed)
	}
}

func TestFirstInvocationStat(t *testing.T) {
	m, u, lo := mk(t, 4, Options{})
	c := m.CPU(0)
	hammer(m, lo, 3, 200)
	hammer(m, lo+1, 4, 200)
	u.MigrateMemory(c) // 2 moves
	hammer(m, lo+2, 5, 200)
	u.MigrateMemory(c) // 1 move
	s := u.Stats()
	if s.Migrations != 3 || s.FirstInvocation != 2 {
		t.Errorf("migrations=%d first=%d, want 3/2", s.Migrations, s.FirstInvocation)
	}
}

func TestRecordReplayUndoCycle(t *testing.T) {
	m, u, lo := mk(t, 6, Options{MaxCritical: 20})
	c := m.CPU(0)

	// Phase trace: between the two records, node 5 hammers pages 0 and 1.
	u.Record(c)
	hammer(m, lo, 5, 300)
	hammer(m, lo+1, 5, 300)
	hammer(m, lo+2, 0, 300) // home-dominated: not a candidate
	u.Record(c)
	u.CompareCounters(c)
	if u.Plans() != 1 {
		t.Fatalf("plans = %d, want 1", u.Plans())
	}

	// Replay moves pages 0 and 1 to node 5.
	if n := u.Replay(c); n != 2 {
		t.Fatalf("Replay moved %d, want 2", n)
	}
	if m.PT.Home(lo) != 5 || m.PT.Home(lo+1) != 5 {
		t.Errorf("replayed homes = %d,%d want 5,5", m.PT.Home(lo), m.PT.Home(lo+1))
	}
	if m.PT.Home(lo+2) != 0 {
		t.Error("non-candidate page moved")
	}

	// Undo restores the initial placement.
	if n := u.Undo(c); n != 2 {
		t.Fatalf("Undo moved %d, want 2", n)
	}
	if m.PT.Home(lo) != 0 || m.PT.Home(lo+1) != 0 {
		t.Errorf("undo failed: homes %d,%d", m.PT.Home(lo), m.PT.Home(lo+1))
	}

	// The cycle replays again next iteration.
	if n := u.Replay(c); n != 2 {
		t.Errorf("second Replay moved %d, want 2", n)
	}
	u.Undo(c)
	s := u.Stats()
	if s.ReplayMigrations != 4 || s.UndoMigrations != 4 {
		t.Errorf("replay/undo stats = %d/%d, want 4/4", s.ReplayMigrations, s.UndoMigrations)
	}
}

func TestCompareCountersHonoursMaxCritical(t *testing.T) {
	m, u, lo := mk(t, 10, Options{MaxCritical: 3})
	c := m.CPU(0)
	u.Record(c)
	for p := 0; p < 10; p++ {
		hammer(m, lo+uint64(p), 4, 100+10*p) // all eligible, rising heat
	}
	u.Record(c)
	u.CompareCounters(c)
	if n := u.Replay(c); n != 3 {
		t.Errorf("Replay moved %d pages, want MaxCritical=3", n)
	}
	// The 3 hottest pages (largest counters, all with lacc=0 so ordered
	// by raccmax) are the last three.
	for p := 7; p < 10; p++ {
		if m.PT.Home(lo+uint64(p)) != 4 {
			t.Errorf("hot page %d not replayed", p)
		}
	}
}

func TestCompareCountersIsolatesPhases(t *testing.T) {
	// Two transitions: phase A hammers page 0 from node 2, phase B
	// hammers page 1 from node 6. Each plan must only contain its
	// phase's page.
	m, u, lo := mk(t, 2, Options{})
	c := m.CPU(0)
	u.Record(c)
	hammer(m, lo, 2, 300)
	u.Record(c)
	hammer(m, lo+1, 6, 300)
	u.Record(c)
	u.CompareCounters(c)
	if u.Plans() != 2 {
		t.Fatalf("plans = %d, want 2", u.Plans())
	}
	u.Replay(c) // plan for transition into phase A
	if m.PT.Home(lo) != 2 || m.PT.Home(lo+1) != 0 {
		t.Errorf("after replay A: homes %d,%d want 2,0", m.PT.Home(lo), m.PT.Home(lo+1))
	}
	u.Replay(c) // plan B
	if m.PT.Home(lo+1) != 6 {
		t.Errorf("after replay B: page1 home %d, want 6", m.PT.Home(lo+1))
	}
	u.Undo(c)
	if m.PT.Home(lo) != 0 || m.PT.Home(lo+1) != 0 {
		t.Error("undo did not restore both pages")
	}
}

func TestCompareCountersPanicsWithoutRecords(t *testing.T) {
	_, u, _ := mk(t, 1, Options{})
	defer func() {
		if recover() == nil {
			t.Error("no panic with a single record")
		}
	}()
	u.CompareCounters(nil)
}

func TestMemRefCntPanicsOnEmptyRange(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	u := Init(m, Options{})
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty range")
		}
	}()
	u.MemRefCnt(5, 5)
}

func TestUndoWithoutReplayIsNoop(t *testing.T) {
	m, u, _ := mk(t, 2, Options{})
	if n := u.Undo(m.CPU(0)); n != 0 {
		t.Errorf("Undo moved %d pages with empty plan", n)
	}
}

func TestEndToEndDataDistribution(t *testing.T) {
	// The headline mechanism: worst-case placement, each CPU streams its
	// own chunk every "iteration"; after one iteration MigrateMemory must
	// reproduce the first-touch-like distribution and then deactivate.
	cfg := machine.DefaultConfig()
	cfg.Placement = vm.WorstCase
	m := machine.MustNew(cfg)
	a := m.NewArray("x", 16*2048)
	lo, hi := a.PageRange()
	u := Init(m, Options{})
	u.MemRefCnt(lo, hi)

	iterate := func() {
		for id := 0; id < 16; id++ {
			c := m.CPU(id)
			c.FlushCaches()
			for i := id * 2048; i < (id+1)*2048; i++ {
				a.Set(c, i, 1)
			}
		}
		m.Settle(m.CPUs(), 0)
	}

	iterate()
	if n := u.MigrateMemory(m.CPU(0)); n == 0 {
		t.Fatal("first iteration produced no migrations under worst-case placement")
	}
	for p := lo; p < hi; p++ {
		want := int(p-lo) / 2 // page i belongs to CPU i => node i/2
		if got := m.PT.Home(p); got != want {
			t.Errorf("page %d homed on %d, want %d", p-lo, got, want)
		}
	}
	iterate()
	if n := u.MigrateMemory(m.CPU(0)); n != 0 {
		t.Errorf("second iteration still migrated %d pages", n)
	}
	if u.Active() {
		t.Error("engine did not self-deactivate")
	}
}

func TestReactivateReArmsAndClearsHistory(t *testing.T) {
	m, u, lo := mk(t, 2, Options{})
	c := m.CPU(0)
	hammer(m, lo, 3, 200)
	u.MigrateMemory(c) // moves page 0 to node 3
	u.MigrateMemory(c) // nothing left: deactivates
	if u.Active() {
		t.Fatal("engine still active")
	}
	// A "scheduler intervention" reverses the access pattern.
	u.Reactivate()
	if !u.Active() {
		t.Fatal("Reactivate did not re-arm the engine")
	}
	// Moving back to node 0 would normally be a ping-pong freeze; after
	// reactivation the history must be forgotten.
	hammer(m, lo, 0, 200)
	if n := u.MigrateMemory(c); n != 1 {
		t.Errorf("post-reactivation migration count = %d, want 1", n)
	}
	if m.PT.Home(lo) != 0 {
		t.Errorf("page home = %d, want 0", m.PT.Home(lo))
	}
	if m.PT.Frozen(lo) {
		t.Error("page frozen despite cleared history")
	}
}

func TestReactivateResetsCounters(t *testing.T) {
	m, u, lo := mk(t, 1, Options{})
	hammer(m, lo, 5, 100)
	u.Reactivate()
	if got := m.PT.Counters(lo, nil)[5]; got != 0 {
		t.Errorf("counters not reset on reactivation: %d", got)
	}
}
