package machine

import (
	"strings"
	"testing"
)

// TestAllocGrowsTables: a machine's page table and coherence directory
// cover its heap, not its arena. Alloc grows both, page by page and
// unit by unit, and the new pages are unmapped.
func TestAllocGrowsTables(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNew(cfg)
	if n := len(m.lineState); n != 0 {
		t.Errorf("fresh machine's directory has %d units, want 0", n)
	}
	units := cfg.PageBytes / cfg.L2Line
	for _, pages := range []int{1, 3, 10} {
		m.Alloc(pages * cfg.PageBytes)
		heap := int(m.AllocatedPages())
		if got := m.PT.Pages(); got != heap {
			t.Errorf("heap of %d pages: page table covers %d", heap, got)
		}
		if got := len(m.lineState); got != heap*units {
			t.Errorf("heap of %d pages: directory has %d units, want %d", heap, got, heap*units)
		}
		if h := m.PT.Home(uint64(heap - 1)); h != -1 {
			t.Errorf("newly allocated page %d has home %d, want unmapped", heap-1, h)
		}
	}
	// A run across the heap's last page faults it in like any other.
	a := m.NewArray("x", cfg.PageBytes/8)
	m.CPU(3).StoreRun(a.Addr(0), a.Len(), 8)
	if lo, _ := a.PageRange(); m.PT.Home(lo) != m.CPU(3).NodeID {
		t.Errorf("page %d homed on node %d, want the toucher's %d", lo, m.PT.Home(lo), m.CPU(3).NodeID)
	}
}

// TestAccessPastHeapPanics: an access outside the heap, or on a machine
// whose cache-side state was dropped, fails with a message that says so.
func TestAccessPastHeapPanics(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name, want string
		setup      func(m *Machine)
		access     func(m *Machine, addr uint64)
	}{
		{"load past heap", "past the heap", func(m *Machine) {}, func(m *Machine, a uint64) { m.CPU(0).Load(a) }},
		{"run past heap", "past the heap", func(m *Machine) {}, func(m *Machine, a uint64) { m.CPU(0).LoadRun(a-8, 4, 8) }},
		{"dropped", "without cache-side state", func(m *Machine) { m.DropCacheState() }, func(m *Machine, a uint64) { m.CPU(0).Store(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(cfg)
			m.Alloc(cfg.PageBytes)
			tc.setup(m)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "machine: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want a machine message containing %q", msg, tc.want)
				}
			}()
			tc.access(m, uint64(cfg.PageBytes))
		})
	}
}

// TestDropCacheState: a replay's machine drops its cache-side state
// before it allocates, so it holds no directory, no cache lines and no
// TLB, however much it allocates; its CPUStats survive.
func TestDropCacheState(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNew(cfg)
	a := m.NewArray("x", 64)
	m.CPU(1).LoadRun(a.Addr(0), a.Len(), 8)
	st := m.CPU(1).Stat()
	m.DropCacheState()
	m.Alloc(4 * cfg.PageBytes)
	if m.lineState != nil {
		t.Errorf("directory of %d units after DropCacheState and Alloc", len(m.lineState))
	}
	for _, c := range m.CPUs() {
		if c.l1 != nil || c.l2 != nil || c.tlb != nil {
			t.Errorf("cpu %d keeps its caches or its TLB", c.ID)
		}
	}
	if got := m.CPU(1).Stat(); got != st {
		t.Errorf("CPUStats %+v after the drop, want %+v", got, st)
	}
	if got, want := m.PT.Pages(), int(m.AllocatedPages()); got != want {
		t.Errorf("page table covers %d pages, want the heap's %d", got, want)
	}
	if !m.CacheStateDropped() || m.Clone().lineState != nil || !m.Clone().CacheStateDropped() {
		t.Error("a clone of a dropped machine grew back its state")
	}
}

// TestCachesBuiltAtFirstAlloc: a new machine holds no caches or TLBs
// until its first Alloc builds them with the directory; flushing or
// cloning it before then is fine, and the clone builds its own.
func TestCachesBuiltAtFirstAlloc(t *testing.T) {
	m := MustNew(DefaultConfig())
	for _, c := range m.CPUs() {
		if c.l1 != nil || c.l2 != nil || c.tlb != nil {
			t.Fatalf("cpu %d has caches or a TLB before the first Alloc", c.ID)
		}
		c.FlushCaches()
		c.FlushL1()
		c.FlushL1L2()
	}
	cl := m.Clone()
	m.Alloc(1)
	cl.Alloc(1)
	for _, mm := range []*Machine{m, cl} {
		for _, c := range mm.CPUs() {
			if c.l1 == nil || c.l2 == nil || c.tlb == nil {
				t.Fatalf("cpu %d has no caches or TLB after Alloc", c.ID)
			}
		}
	}
	if m.CPU(0).l1 == cl.CPU(0).l1 || m.CPU(0).tlb == cl.CPU(0).tlb {
		t.Error("a clone shares its parent's caches")
	}
}

// TestRewindHeapKeepsTables: rewinding the heap and allocating the same
// arrays again, as a forked run rebuilding its kernel does, leaves the
// page table and the directory as they were, and a clone's tables are
// its own.
func TestRewindHeapKeepsTables(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNew(cfg)
	a := m.NewArray("a", 5000)
	m.NewArray("b", 3000)
	m.CPU(2).StoreRun(a.Addr(0), a.Len(), 8)
	c := m.Clone()
	pages, units := c.PT.Pages(), len(c.lineState)
	dir := append([]uint32(nil), c.lineState...)
	c.RewindHeap()
	c.NewArray("a", 5000)
	c.NewArray("b", 3000)
	if c.PT.Pages() != pages || len(c.lineState) != units || !machinesEqual(t, m, c) {
		t.Errorf("rewound clone covers %d pages and %d units, want %d and %d", c.PT.Pages(), len(c.lineState), pages, units)
	}
	for i, w := range dir {
		if c.lineState[i] != w {
			t.Fatalf("directory unit %d changed across the rewind", i)
		}
	}
	c.NewArray("c", 4000)
	if m.PT.Pages() != pages || len(m.lineState) != units {
		t.Errorf("growing the clone grew the parent to %d pages, %d units", m.PT.Pages(), len(m.lineState))
	}
}

// BenchmarkMachineNew is the replay's memory probe: it builds the
// machine a stream replay of BT runs on — the class machine, its
// cache-side state dropped, BT's heap allocated — and reports the bytes
// each build allocates (B/op). Class W: 2,304 pages of 2 KiB; Class A:
// 1,920 pages of 16 KiB; both arenas hold 32,768 pages.
func BenchmarkMachineNew(b *testing.B) {
	w := DefaultConfig()
	w.PageBytes = 2 * 1024
	w.L1Bytes, w.L1Line, w.L1Ways = 8*1024, 32, 2
	w.L2Bytes, w.L2Line, w.L2Ways = 64*1024, 128, 2
	for _, c := range []struct {
		name  string
		cfg   Config
		pages int
	}{{"W", w, 2304}, {"A", DefaultConfig(), 1920}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := MustNew(c.cfg)
				m.DropCacheState()
				m.Alloc(c.pages * c.cfg.PageBytes)
			}
		})
	}
}
