package machine

import (
	"reflect"
	"testing"
)

// cloneConfig is a small machine with every optional feature reachable:
// tight capacity so placement overflows, 4 nodes so hops vary.
func cloneConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.CPUsPerNode = 4, 2
	cfg.PageBytes = 1024
	cfg.ArenaPages = 1 << 10
	cfg.L1Bytes, cfg.L1Line, cfg.L1Ways = 4*1024, 32, 2
	cfg.L2Bytes, cfg.L2Line, cfg.L2Ways = 16*1024, 128, 2
	cfg.CapacityPages = 200
	return cfg
}

// exercise drives m through every stateful component: loads and stores
// from every CPU (caches, TLBs, coherence words, clocks, stats, node
// tallies), page faults, counter bumps, migrations, freezes, replicas
// and the write log.
func exercise(m *Machine, rounds int) {
	a := m.NewArray("x", 64*m.Cfg.PageBytes/8)
	lo, hi := a.PageRange()
	for r := 0; r < rounds; r++ {
		for i := 0; i < m.NumCPUs(); i++ {
			c := m.CPU(i)
			for p := lo; p < hi; p++ {
				addr := p << m.PageShift()
				c.Load(addr + uint64(8*i))
				if (int(p)+i+r)%3 == 0 {
					c.Store(addr + uint64(8*i))
				}
			}
			c.LoadRun(a.Addr(0), 32, 8)
			c.Advance(int64(100 * (i + 1)))
		}
		m.Settle(m.CPUs(), 0)
	}
	m.PT.SetWriteTracking(true)
	m.PT.Replicate(lo, int(lo+1)%m.Cfg.Nodes)
	m.PT.Migrate(lo+1, 2)
	m.PT.Freeze(lo + 2)
	m.PT.CountMissN(lo+3, 1, 1)
}

// machinesEqual compares every piece of simulated state of two machines
// except the intentionally unshared parts (hooks, tracer) and the CPUs'
// back-pointers. reflect.DeepEqual sees unexported fields, so the caches,
// TLBs, latency rows and page tables are compared in full.
func machinesEqual(t *testing.T, a, b *Machine) bool {
	t.Helper()
	ok := true
	check := func(name string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s diverged:\n a: %+v\n b: %+v", name, x, y)
			ok = false
		}
	}
	check("Cfg", a.Cfg, b.Cfg)
	check("heap", a.heap, b.heap)
	check("lineState", a.lineState, b.lineState)
	check("PT", a.PT, b.PT)
	if len(a.cpus) != len(b.cpus) {
		t.Fatalf("cpu counts differ: %d vs %d", len(a.cpus), len(b.cpus))
	}
	for i := range a.cpus {
		ca, cb := a.cpus[i], b.cpus[i]
		check("clock", ca.clock, cb.clock)
		check("stat", ca.stat, cb.stat)
		check("nodeAcc", ca.nodeAcc, cb.nodeAcc)
		check("accList", ca.accList, cb.accList)
		check("accList", ca.accList, cb.accList)
		check("l1", ca.l1, cb.l1)
		check("l2", ca.l2, cb.l2)
		check("tlb", ca.tlb, cb.tlb)
		check("mem", ca.mem, cb.mem)
	}
	return ok
}

// TestCloneIsolation is the deep-copy property test: mutate every
// component of a fork — caches, TLB, page-table counters and homes,
// coherence words, clocks, heap, replicas — and assert the parent is
// bit-for-bit untouched (and vice versa: mutating the parent leaves an
// earlier fork alone).
func TestCloneIsolation(t *testing.T) {
	m := MustNew(cloneConfig())
	exercise(m, 2)

	ref := m.Clone() // frozen reference picture of the parent
	fork := m.Clone()
	if !machinesEqual(t, m, ref) || !machinesEqual(t, m, fork) {
		t.Fatal("clone is not initially identical to its parent")
	}

	// Hammer the fork through every mutation path.
	exercise(fork, 3)
	fork.Alloc(fork.Cfg.PageBytes * 3)
	fork.CPU(0).FlushCaches()
	fork.CPU(1).SetClock(1 << 40)
	fork.PT.ResetAllCounters()
	fork.PT.Unfreeze(0)
	fork.PT.CollapseReplicas(0)
	if !machinesEqual(t, m, ref) {
		t.Error("mutating the fork changed the parent")
	}

	// And the other direction: the parent keeps simulating, the fork's
	// snapshot (compared against a clone of the untouched reference) must
	// not move.
	forkRef := ref.Clone()
	exercise(m, 1)
	if !machinesEqual(t, ref, forkRef) {
		t.Error("mutating the parent changed a fork")
	}
}

// TestCloneRewindHeapReplaysAllocations: allocation on a rewound clone is
// deterministic and returns the original addresses — the property kernel
// rebuilds on forks rely on.
func TestCloneRewindHeapReplaysAllocations(t *testing.T) {
	m := MustNew(cloneConfig())
	sizes := []int{100, 4096, 1, 3 * 1024}
	var addrs []uint64
	for _, s := range sizes {
		addrs = append(addrs, m.Alloc(s))
	}
	c := m.Clone()
	c.RewindHeap()
	if c.AllocatedPages() != 0 {
		t.Fatalf("rewound clone reports %d allocated pages", c.AllocatedPages())
	}
	for i, s := range sizes {
		if got := c.Alloc(s); got != addrs[i] {
			t.Errorf("replayed Alloc(%d) = %#x, original %#x", s, got, addrs[i])
		}
	}
	if c.AllocatedPages() != m.AllocatedPages() {
		t.Errorf("replayed heap has %d pages, original %d", c.AllocatedPages(), m.AllocatedPages())
	}
	if m.heap != c.heap {
		t.Errorf("heap cursors diverge: %d vs %d", m.heap, c.heap)
	}
}

// TestCloneStartsHookFree: barrier hooks are closures over parent-bound
// engine state and must not leak into clones.
func TestCloneStartsHookFree(t *testing.T) {
	m := MustNew(cloneConfig())
	fired := 0
	m.AddBarrierHook(func(now int64) int64 { fired++; return 0 })
	c := m.Clone()
	c.Settle(c.CPUs(), 0)
	if fired != 0 {
		t.Error("parent hook fired during a clone's settlement")
	}
	m.Settle(m.CPUs(), 0)
	if fired != 1 {
		t.Errorf("parent hook fired %d times on the parent, want 1", fired)
	}
}
