package machine

import (
	"testing"

	"upmgo/internal/memsys"
	"upmgo/internal/vm"
)

func defMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultConfigShape(t *testing.T) {
	m := defMachine(t)
	if m.NumCPUs() != 16 {
		t.Errorf("NumCPUs = %d, want 16", m.NumCPUs())
	}
	if m.Topo.Nodes() != 8 {
		t.Errorf("Nodes = %d, want 8", m.Topo.Nodes())
	}
	if m.CPU(5).NodeID != 2 {
		t.Errorf("CPU 5 on node %d, want 2", m.CPU(5).NodeID)
	}
	if m.PageBytes() != 16*1024 {
		t.Errorf("PageBytes = %d, want 16384", m.PageBytes())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	if _, err := New(cfg); err == nil {
		t.Error("3 nodes accepted")
	}
	cfg = DefaultConfig()
	cfg.PageBytes = 3000
	if _, err := New(cfg); err == nil {
		t.Error("non-power-of-two page accepted")
	}
	cfg = DefaultConfig()
	cfg.CPUsPerNode = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative CPUs per node accepted")
	}
}

func TestAllocPageAlignedAndDisjoint(t *testing.T) {
	m := defMachine(t)
	a := m.NewArray("a", 10)
	b := m.NewArray("b", 10)
	if a.Base()%uint64(m.PageBytes()) != 0 || b.Base()%uint64(m.PageBytes()) != 0 {
		t.Error("arrays not page-aligned")
	}
	aLo, aHi := a.PageRange()
	bLo, bHi := b.PageRange()
	if aHi > bLo && bHi > aLo {
		t.Errorf("arrays share pages: a=[%d,%d) b=[%d,%d)", aLo, aHi, bLo, bHi)
	}
}

func TestAllocPanicsWhenArenaExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArenaPages = 2
	m := MustNew(cfg)
	defer func() {
		if recover() == nil {
			t.Error("no panic on arena exhaustion")
		}
	}()
	m.Alloc(10 * cfg.PageBytes)
}

// TestTouchLatencyLadder verifies the paper's Table 1 end to end: the cost
// of a load depends on the level of the hierarchy that serves it.
func TestTouchLatencyLadder(t *testing.T) {
	m := defMachine(t)
	lat := m.Lat
	c := m.CPU(0) // node 0
	// 3000 lines of four elements: the L1-evicting stream below reads it all.
	a := m.NewArray("x", 3000*4)

	// Cold access from CPU 0: first-touch fault + TLB miss + local memory.
	t0 := c.Now()
	c.Load(a.Addr(0))
	cold := c.Now() - t0
	want := lat.L1Hit + lat.PageFault + lat.TLBRefill + lat.MemLatency(0)
	if cold != want {
		t.Errorf("cold local access cost %d, want %d", cold, want)
	}

	// Immediately again: L1 hit.
	t0 = c.Now()
	c.Load(a.Addr(0))
	if got := c.Now() - t0; got != lat.L1Hit {
		t.Errorf("L1 hit cost %d, want %d", got, lat.L1Hit)
	}

	// Same line after flushing L1 only is impossible through the public
	// API (FlushCaches clears both), so model an L2 hit by touching a
	// different word of a line that has fallen out of L1 but not L2:
	// stream enough lines to evict L1 (32 KB) but not L2 (4 MB).
	for i := 0; i < 3000; i++ {
		c.Load(a.Addr(i * 4)) // 32-byte lines: every 4th float64
	}
	t0 = c.Now()
	c.Load(a.Addr(0))
	if got := c.Now() - t0; got != lat.L1Hit+lat.L2Hit {
		t.Errorf("L2 hit cost %d, want %d", got, lat.L1Hit+lat.L2Hit)
	}

	// Remote access: CPU 15 (node 7, 3 hops from node 0) touches a page
	// homed on node 0. Flush its caches to force the memory access.
	r := m.CPU(15)
	r.FlushCaches()
	t0 = r.Now()
	r.Load(a.Addr(0))
	hops := m.Topo.Hops(7, 0)
	want = lat.L1Hit + lat.TLBRefill + lat.MemLatency(hops)
	if got := r.Now() - t0; got != want {
		t.Errorf("remote access cost %d, want %d (hops=%d)", got, want, hops)
	}
}

func TestTouchUpdatesCountersOnL2MissOnly(t *testing.T) {
	m := defMachine(t)
	c := m.CPU(2) // node 1
	a := m.NewArray("x", 64)
	c.Load(a.Addr(0))
	vpn := m.VPN(a.Addr(0))
	row := m.PT.Counters(vpn, nil)
	if row[1] != 1 {
		t.Fatalf("counter row after one miss = %v, want node1=1", row)
	}
	// L1 hits must not move the counters.
	for i := 0; i < 10; i++ {
		c.Load(a.Addr(0))
	}
	if row = m.PT.Counters(vpn, nil); row[1] != 1 {
		t.Errorf("counters moved on cache hits: %v", row)
	}
}

// TestCoherenceVersionWrap: a store that bumps a unit's version past the
// top of its 23-bit field wraps it to 0 in the directory and in the
// storing CPU's refreshed copy alike, so that CPU's next load hits L1.
func TestCoherenceVersionWrap(t *testing.T) {
	m := defMachine(t)
	a := m.NewArray("x", 64)
	addr := a.Addr(0)
	m.CPU(0).Store(addr)
	u := addr >> m.cohShift
	m.lineState[u] = (versionLimit-1)<<9 | m.lineState[u]&0x1ff
	c := m.CPU(1)
	c.Store(addr)
	if v := m.lineState[u] >> 9; v != 0 {
		t.Fatalf("version after the bump = %d, want 0", v)
	}
	l1 := c.Stat().L1Miss
	c.Load(addr)
	if c.Stat().L1Miss != l1 {
		t.Error("the storing CPU's load after the wrap missed L1")
	}
}

func TestStatsLocalVsRemote(t *testing.T) {
	m := defMachine(t)
	a := m.NewArray("x", 2048*4)
	c0 := m.CPU(0)
	// CPU 0 touches one element of each of 2 pages: local (first touch).
	c0.Load(a.Addr(0))
	c0.Load(a.Addr(2048)) // 16 KB page = 2048 float64s
	r := m.CPU(15)
	r.Load(a.Addr(0)) // remote: page homed on node 0
	s := m.Stats()
	if s.LocalMem != 2 || s.RemoteMem != 1 {
		t.Errorf("local/remote = %d/%d, want 2/1", s.LocalMem, s.RemoteMem)
	}
	if got := s.RemoteRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("RemoteRatio = %v, want 1/3", got)
	}
	if s.Faults != 2 {
		t.Errorf("faults = %d, want 2", s.Faults)
	}
}

func TestSettleSynchronisesClocks(t *testing.T) {
	m := defMachine(t)
	cpus := m.CPUs()[:4]
	cpus[0].Advance(100)
	cpus[1].Advance(900)
	tb := m.Settle(cpus, 0)
	if tb < 900 {
		t.Errorf("settled time %d < max clock 900", tb)
	}
	for _, c := range cpus {
		c.SetClock(tb)
	}
	for _, c := range cpus {
		if c.Now() != tb {
			t.Errorf("CPU %d clock %d, want %d", c.ID, c.Now(), tb)
		}
	}
}

func TestSettleAppliesSaturationFloor(t *testing.T) {
	m := defMachine(t)
	cpus := m.CPUs()
	// Simulate a region where every CPU made 1000 accesses to node 0 but
	// little compute time passed: the floor must dominate.
	for _, c := range cpus {
		c.tally(0, 1000)
		c.Advance(1000) // 1 ns of compute
	}
	tb := m.Settle(cpus, 0)
	floor := int64(16000) * m.Lat.MemService
	if tb < floor {
		t.Errorf("settled time %d below saturation floor %d", tb, floor)
	}
}

func TestSettleBalancedBeatsConcentrated(t *testing.T) {
	mk := func(conc bool) int64 {
		m := defMachine(t)
		cpus := m.CPUs()
		for _, c := range cpus {
			if conc {
				c.tally(0, 800)
			} else {
				for n := 0; n < 8; n++ {
					c.tally(n, 100)
				}
			}
			c.Advance(200 * memsys.Micro)
		}
		return m.Settle(cpus, 0)
	}
	if bal, con := mk(false), mk(true); con <= bal {
		t.Errorf("concentrated settle %d <= balanced %d; contention model inactive", con, bal)
	}
}

func TestBarrierHookRuns(t *testing.T) {
	m := defMachine(t)
	called := false
	m.AddBarrierHook(func(now int64) int64 {
		called = true
		return 42
	})
	tb := m.Settle(m.CPUs()[:1], 0)
	if !called {
		t.Fatal("hook not called")
	}
	if m.CPU(0).Now() != tb {
		t.Error("hook cost not propagated to CPU clock")
	}
}

func TestPlacementPolicyWiredThrough(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = vm.WorstCase
	m := MustNew(cfg)
	a := m.NewArray("x", 4096)
	m.CPU(13).Load(a.Addr(0))
	if home := m.PT.Home(m.VPN(a.Addr(0))); home != 0 {
		t.Errorf("worst-case page homed on %d, want 0", home)
	}
}

func TestFlopsCharging(t *testing.T) {
	m := defMachine(t)
	c := m.CPU(0)
	t0 := c.Now()
	c.Flops(10)
	if got := c.Now() - t0; got != 10*m.Lat.FlopCost {
		t.Errorf("10 flops cost %d, want %d", got, 10*m.Lat.FlopCost)
	}
}

func TestMigrationInvalidatesTLBLazily(t *testing.T) {
	m := defMachine(t)
	c := m.CPU(0)
	a := m.NewArray("x", 64)
	c.Load(a.Addr(0)) // faults page onto node 0, loads TLB
	vpn := m.VPN(a.Addr(0))
	if res := m.PT.Migrate(vpn, 5); !res.Moved {
		t.Fatal("migration refused")
	}
	c.FlushCaches() // drop caches but NOT the TLB? FlushCaches drops TLB too...
	// Rebuild the TLB entry at the old generation is not possible through
	// the public API, so check the generation directly.
	if m.PT.Gen(vpn) == 0 {
		t.Error("migration did not bump the generation")
	}
	// A fresh touch must be served by node 5 now.
	before := c.Stat().RemoteMem
	c.Load(a.Addr(0))
	if c.Stat().RemoteMem != before+1 {
		t.Error("post-migration access not served remotely")
	}
}
