package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"upmgo/internal/memsys"
)

// bulkTestConfig returns a deliberately tiny machine so that short runs
// cross L1 lines, L2 lines, pages, and TLB capacity.
func bulkTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CPUsPerNode = 2
	cfg.PageBytes = 1024
	cfg.ArenaPages = 256
	cfg.L1Bytes, cfg.L1Line, cfg.L1Ways = 512, 32, 2
	cfg.L2Bytes, cfg.L2Line, cfg.L2Ways = 2048, 128, 2
	cfg.TLBEntries, cfg.TLBWays = 8, 2
	return cfg
}

// pair builds two identical machines, one with the bulk fast path enabled
// and one forced onto the scalar reference ladder, each with its whole
// arena allocated, since the tests address it directly. Driving both with
// the same call sequence and comparing their full observable state is the
// equivalence contract of the bulk path.
func pair(t *testing.T, cfg Config) (bulk, scalar *Machine) {
	t.Helper()
	b := cfg
	b.ScalarRuns = false
	s := cfg
	s.ScalarRuns = true
	bulk, scalar = MustNew(b), MustNew(s)
	bulk.Alloc(cfg.ArenaPages * cfg.PageBytes)
	scalar.Alloc(cfg.ArenaPages * cfg.PageBytes)
	return bulk, scalar
}

// compareMachines asserts bit-identical clocks, event counters, cache
// lines and versions and TLB entries, each in recency order, and page
// reference counters between the two machines.
func compareMachines(t *testing.T, bulk, scalar *Machine, pages uint64) {
	t.Helper()
	for i := range bulk.CPUs() {
		cb, cs := bulk.CPU(i), scalar.CPU(i)
		if cb.Now() != cs.Now() {
			t.Errorf("cpu %d: clock %d (bulk) != %d (scalar)", i, cb.Now(), cs.Now())
		}
		if cb.Stat() != cs.Stat() {
			t.Errorf("cpu %d: stats %+v (bulk) != %+v (scalar)", i, cb.Stat(), cs.Stat())
		}
		for _, l := range []struct {
			name string
			b, s *memsys.Cache
		}{{"L1", cb.l1, cs.l1}, {"L2", cb.l2, cs.l2}} {
			bt, bv := l.b.Lines()
			st, sv := l.s.Lines()
			if !slices.Equal(bt, st) || !slices.Equal(bv, sv) {
				t.Errorf("cpu %d: %s lines differ between bulk and scalar", i, l.name)
			}
		}
		if !slices.Equal(cb.tlb.Ways(), cs.tlb.Ways()) {
			t.Errorf("cpu %d: TLB entries differ between bulk and scalar", i)
		}
	}
	if bulk.Stats() != scalar.Stats() {
		t.Errorf("machine stats %+v (bulk) != %+v (scalar)", bulk.Stats(), scalar.Stats())
	}
	var cb, cs []uint32
	for vpn := uint64(0); vpn < pages; vpn++ {
		cb = bulk.PT.Counters(vpn, cb)
		cs = scalar.PT.Counters(vpn, cs)
		for n := range cb {
			if cb[n] != cs[n] {
				t.Errorf("page %d node %d: counter %d (bulk) != %d (scalar)", vpn, n, cb[n], cs[n])
			}
		}
	}
}

// drive applies the same operation to the matching CPU of both machines.
func drive(bulk, scalar *Machine, cpu int, op func(c *CPU)) {
	op(bulk.CPU(cpu))
	op(scalar.CPU(cpu))
}

func TestLoadRunMatchesScalarAcrossBoundaries(t *testing.T) {
	cfg := bulkTestConfig()
	for _, tc := range []struct {
		name   string
		base   uint64
		n      int
		stride uint64
	}{
		{"within-one-L1-line", 8, 3, 8},
		{"cross-L1-lines", 24, 6, 8},
		{"cross-L2-line", 120, 4, 8},
		{"cross-page", 1000, 20, 8},
		{"many-pages", 8, 700, 8},          // spans > 5 pages
		{"tlb-pressure", 0, 2048, 8},       // 16 pages > 8 TLB entries
		{"stride-16", 4, 130, 16},          // two elements per L1 line
		{"stride-4-int", 2, 300, 4},        // int32-style references
		{"stride-64", 0, 40, 64},           // one element every other L1 line
		{"stride-over-L2-line", 0, 9, 256}, // falls back to the scalar loop
		{"misaligned", 13, 333, 8},
		{"single", 40, 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bulk, scalar := pair(t, cfg)
			drive(bulk, scalar, 0, func(c *CPU) {
				c.LoadRun(tc.base, tc.n, tc.stride)
				c.LoadRun(tc.base, tc.n, tc.stride) // warm second sweep
			})
			compareMachines(t, bulk, scalar, 64)
		})
	}
}

func TestStoreRunMatchesScalar(t *testing.T) {
	cfg := bulkTestConfig()
	bulk, scalar := pair(t, cfg)
	// First-touch faults, ownership claims, then an invalidating reader
	// and a re-writer: exercises every coherence transition in run form.
	drive(bulk, scalar, 0, func(c *CPU) { c.StoreRun(64, 600, 8) })
	drive(bulk, scalar, 1, func(c *CPU) { c.LoadRun(64, 600, 8) })
	drive(bulk, scalar, 0, func(c *CPU) { c.StoreRun(64, 600, 8) })
	drive(bulk, scalar, 3, func(c *CPU) { c.StoreRun(200, 100, 8) })
	drive(bulk, scalar, 0, func(c *CPU) { c.LoadRun(64, 600, 8) })
	compareMachines(t, bulk, scalar, 64)
}

func TestRunMixedWithScalarTouches(t *testing.T) {
	cfg := bulkTestConfig()
	bulk, scalar := pair(t, cfg)
	drive(bulk, scalar, 0, func(c *CPU) {
		for i := 0; i < 100; i++ {
			c.Store(uint64(i) * 8)
		}
		c.LoadRun(0, 100, 8)
		c.Load(40)
		c.StoreRun(16, 50, 8)
		c.LoadRun(0, 100, 8)
	})
	compareMachines(t, bulk, scalar, 64)
}

func TestStoreRunWriteTrackingAndReplicas(t *testing.T) {
	cfg := bulkTestConfig()
	bulk, scalar := pair(t, cfg)
	// Place pages 0..4 from node 0, replicate page 1 on node 2, enable
	// write tracking, then write a run across pages 0..2: the run must
	// collapse the replica and charge the invalidation exactly once.
	drive(bulk, scalar, 0, func(c *CPU) { c.LoadRun(0, 640, 8) })
	for _, m := range []*Machine{bulk, scalar} {
		if !m.PT.Replicate(1, 2) {
			t.Fatal("replicate failed")
		}
		m.PT.SetWriteTracking(true)
	}
	drive(bulk, scalar, 2, func(c *CPU) { c.LoadRun(1024, 128, 8) }) // read via replica
	drive(bulk, scalar, 4, func(c *CPU) { c.StoreRun(512, 256, 8) }) // spans pages 0..2
	if got := bulk.PT.Replicas(1); got != 0 {
		t.Fatalf("replica not collapsed: mask %#x", got)
	}
	if !bulk.PT.Written(1) {
		t.Fatal("write log missed page 1")
	}
	compareMachines(t, bulk, scalar, 64)
	if bulk.PT.Collapses() != scalar.PT.Collapses() {
		t.Errorf("collapses %d (bulk) != %d (scalar)", bulk.PT.Collapses(), scalar.PT.Collapses())
	}
}

// TestRandomStreamMatchesScalar drives a bulk and a scalar machine with
// one seeded stream of LoadRun, StoreRun, Load and Store on several CPUs,
// and compares them after every operation. Runs use misaligned bases and
// strides up to past an L2 line, including non-power-of-two ones (24, 40,
// 96) that take segLen's division branch. Mid-stream the page table
// migrates pages (a generation bump: every TLB's copy goes stale),
// replicates them, and turns write tracking on, so stores collapse
// replicas; barriers settle the per-node contention tallies.
func TestRandomStreamMatchesScalar(t *testing.T) {
	const ops, pages = 4000, 24
	cfg := bulkTestConfig()
	bulk, scalar := pair(t, cfg)
	rng := rand.New(rand.NewSource(17))
	strides := []uint64{1, 2, 4, 8, 16, 24, 32, 40, 64, 96, 128, 256}
	span := uint64(pages * cfg.PageBytes)
	both := func(f func(m *Machine)) {
		f(bulk)
		f(scalar)
	}
	var start int64
	for op := 0; op < ops; op++ {
		cpu := rng.Intn(bulk.NumCPUs())
		stride := strides[rng.Intn(len(strides))]
		n := 1 + rng.Intn(80)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(4) // short runs: the single-unit early-out
		}
		base := uint64(rng.Int63n(int64(span)))
		if end := base + uint64(n-1)*stride; end >= span {
			n = int((span-1-base)/stride) + 1
		}
		var what string
		switch r := rng.Intn(100); {
		case r < 38:
			what = "LoadRun"
			drive(bulk, scalar, cpu, func(c *CPU) { c.LoadRun(base, n, stride) })
		case r < 76:
			what = "StoreRun"
			drive(bulk, scalar, cpu, func(c *CPU) { c.StoreRun(base, n, stride) })
		case r < 85:
			what = "Load"
			drive(bulk, scalar, cpu, func(c *CPU) { c.Load(base) })
		case r < 94:
			what = "Store"
			drive(bulk, scalar, cpu, func(c *CPU) { c.Store(base) })
		case r < 96:
			what = "Migrate"
			vpn, to := base>>bulk.PageShift(), rng.Intn(cfg.Nodes)
			both(func(m *Machine) { m.PT.Migrate(vpn, to) })
		case r < 98:
			what = "Replicate"
			vpn, to := base>>bulk.PageShift(), rng.Intn(cfg.Nodes)
			both(func(m *Machine) { m.PT.Replicate(vpn, to) })
		default:
			what = "Settle"
			sb, ss := bulk.Settle(bulk.CPUs(), start), scalar.Settle(scalar.CPUs(), start)
			if sb != ss {
				t.Fatalf("op %d: Settle %d (bulk) != %d (scalar)", op, sb, ss)
			}
			start = sb
		}
		if op == ops/3 {
			both(func(m *Machine) { m.PT.SetWriteTracking(true) })
		}
		compareMachines(t, bulk, scalar, pages)
		if bulk.PT.Collapses() != scalar.PT.Collapses() || bulk.PT.StateHash(pages, true) != scalar.PT.StateHash(pages, true) {
			t.Errorf("page tables differ")
		}
		if t.Failed() {
			t.Fatalf("op %d (%s on cpu %d: base %d, n %d, stride %d) diverged", op, what, cpu, base, n, stride)
		}
	}
	st := bulk.Stats()
	if st.TLBMiss == 0 || st.RemoteMem == 0 || st.Migrations == 0 || bulk.PT.Collapses() == 0 {
		t.Fatalf("stream too tame: %+v, %d collapses", st, bulk.PT.Collapses())
	}
}

func TestArrayRunHelpersChargeAndMove(t *testing.T) {
	cfg := bulkTestConfig()
	m := MustNew(cfg)
	a := m.NewArray("a", 512)
	c := m.CPU(0)
	src := make([]float64, 256)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	a.SetRun(c, 128, src)
	got := a.GetRun(c, 128, 256)
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("element %d: got %g want %g", i, got[i], src[i])
		}
	}
	w := a.MutRun(c, 128, 256)
	for i := range w {
		w[i] *= 2
	}
	if a.Get(c, 130) != 2*src[2] {
		t.Fatalf("MutRun write lost: %g", a.Get(c, 130))
	}
	st := c.Stat()
	if want := uint64(256 + 256 + 256 + 1); st.Accesses != want {
		t.Fatalf("accesses %d, want %d", st.Accesses, want)
	}
	ia := m.NewIntArray("ia", 64)
	iw := ia.MutRun(c, 0, 64)
	for i := range iw {
		iw[i] = int32(i)
	}
	iv := ia.GetRun(c, 0, 64)
	if iv[63] != 63 {
		t.Fatalf("IntArray run: %d", iv[63])
	}
}

func TestRowAndVecIndexHelpers(t *testing.T) {
	m := MustNew(bulkTestConfig())
	a3 := m.NewArray3("a3", 4, 5, 6)
	if a3.Row(2, 3) != a3.Idx(2, 3, 0) {
		t.Errorf("Array3.Row(2,3) = %d, want %d", a3.Row(2, 3), a3.Idx(2, 3, 0))
	}
	a4 := m.NewArray4("a4", 3, 4, 5, 6)
	if a4.Row(1, 2) != a4.Idx(1, 2, 0, 0) {
		t.Errorf("Array4.Row(1,2) = %d, want %d", a4.Row(1, 2), a4.Idx(1, 2, 0, 0))
	}
	if a4.Vec(1, 2, 3) != a4.Idx(1, 2, 3, 0) {
		t.Errorf("Array4.Vec(1,2,3) = %d, want %d", a4.Vec(1, 2, 3), a4.Idx(1, 2, 3, 0))
	}
}

// benchMachine builds the default (paper) machine with one array swept by
// the microbenchmarks.
func benchMachine(scalar bool) (*Machine, *Array) {
	cfg := DefaultConfig()
	cfg.ScalarRuns = scalar
	m := MustNew(cfg)
	return m, m.NewArray("sweep", 1<<16)
}

func benchSweep(b *testing.B, scalar bool) {
	m, a := benchMachine(scalar)
	c := m.CPU(0)
	n := a.Len()
	b.SetBytes(int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scalar {
			for j := 0; j < n; j++ {
				c.Load(a.Addr(j))
			}
		} else {
			const chunk = 4096
			for j := 0; j < n; j += chunk {
				c.LoadRun(a.Addr(j), chunk, 8)
			}
		}
	}
	_ = fmt.Sprintf("%d", c.Now()) // keep the clock live
}

// BenchmarkTouchScalar sweeps 64k elements through the per-element ladder.
func BenchmarkTouchScalar(b *testing.B) { benchSweep(b, true) }

// BenchmarkTouchRun sweeps the same elements through the bulk fast path.
func BenchmarkTouchRun(b *testing.B) { benchSweep(b, false) }
