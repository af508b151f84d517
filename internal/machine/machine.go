// Package machine assembles the simulated ccNUMA multiprocessor: CPUs with
// private caches and TLBs, hypercube-connected memory nodes, a paged
// address space, and integer-picosecond virtual time. Application code
// (the NAS kernels, the examples) performs every array element access
// through this package, which charges the access to the accessing CPU's
// clock according to where it is served — L1, L2, local memory, or an
// N-hop remote memory — exactly the ladder of the paper's Table 1.
//
// Virtual time and determinism: each CPU carries its own clock. Within a
// parallel region CPUs never read each other's clocks; at every barrier
// the runtime calls Settle, which applies the memory-node contention
// model to the region just finished and synchronises all clocks to the
// barrier time. A Machine is driven by one goroutine at a time: the omp
// package runs a team's members as coroutines in a fixed thread-id order,
// so first-touch faults and coherence on shared lines resolve the same
// way on every run and results are bit-reproducible.
package machine

import (
	"fmt"
	"math/bits"

	"upmgo/internal/memsys"
	"upmgo/internal/topology"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

// Config describes a machine. DefaultConfig returns the 16-processor SGI
// Origin2000 of the paper.
type Config struct {
	Nodes       int // memory nodes, power of two
	CPUsPerNode int

	PageBytes     int   // virtual memory page size
	ArenaPages    int   // size of the simulated address space
	CapacityPages int64 // per-node page capacity, 0 = unlimited

	L1Bytes, L1Line, L1Ways int
	L2Bytes, L2Line, L2Ways int
	TLBEntries, TLBWays     int

	Lat memsys.Latency

	// Topo, when non-nil, replaces the default hypercube interconnect
	// with a hierarchical topology built from these levels (outermost
	// first; see topology.Hierarchy). Nodes is overridden by the level
	// product. When any level carries ExtraPS, the memory ladder is
	// re-derived per hop distance as local latency + the level extras —
	// the per-level generalization of the paper's Table 1; otherwise the
	// configured (or default Origin2000) ladder stays in force, which is
	// how a cube-shaped hierarchy remains bit-identical to the legacy
	// path. Nil keeps the hypercube over Nodes.
	Topo []topology.Level

	Placement   vm.Policy
	Seed        uint64
	CounterBits int // hardware reference counter width, 0 = 11

	// ScalarRuns disables the bulk-access fast path: LoadRun/StoreRun then
	// decompose into per-element touches. The bulk path is bit-identical
	// to the scalar one by construction (see DESIGN.md, "Bulk-access fast
	// path"); this switch exists so the equivalence tests can prove it and
	// so regressions can be bisected against the reference ladder.
	ScalarRuns bool
}

// DefaultConfig returns the machine evaluated in the paper: 16 R10000
// processors on 8 nodes (2 per node), 16 KB pages, 32 KB 2-way L1 with
// 32-byte lines, 4 MB 2-way L2 with 128-byte lines, 64-entry TLB, and the
// Table 1 latency ladder.
func DefaultConfig() Config {
	return Config{
		Nodes:       8,
		CPUsPerNode: 2,
		PageBytes:   16 * 1024,
		ArenaPages:  1 << 15, // 512 MB of simulated address space
		L1Bytes:     32 * 1024,
		L1Line:      32,
		L1Ways:      2,
		L2Bytes:     4 * 1024 * 1024,
		L2Line:      128,
		L2Ways:      2,
		TLBEntries:  64,
		TLBWays:     8,
		Lat:         memsys.Origin2000(),
		Placement:   vm.FirstTouch,
	}
}

// SetTopology configures the machine's shape from a shape string or
// preset name ("4x2x8", "cube:2x2x2", "hier64"; see topology.ParseShape):
// it sets Topo to the parsed node levels and Nodes/CPUsPerNode to the
// shape's counts. Every other field is untouched.
func (c *Config) SetTopology(shape string) error {
	sh, err := topology.ParseShape(shape)
	if err != nil {
		return err
	}
	c.Topo = sh.Levels
	c.Nodes = sh.NodeCount()
	c.CPUsPerNode = sh.CPUsPerNode
	return nil
}

// BarrierHook runs at every barrier after contention settlement; it
// returns extra picoseconds to add to the barrier time (e.g. the cost of
// kernel-initiated page migrations applied at this quiescent point).
type BarrierHook func(now int64) int64

// Machine is one simulated ccNUMA multiprocessor. It is not safe to share
// a Machine between concurrently running teams.
type Machine struct {
	Cfg  Config
	Topo topology.Topology
	PT   *vm.PageTable
	Lat  memsys.Latency

	cpus      []*CPU
	pageShift uint
	heap      uint64 // next free byte in the arena

	// Coherence directory: one packed state word per coherence unit (an
	// L2 line): bits [31:9] a write version, [8:1] the last writer's CPU
	// id, bit 0 a "shared since last write" flag. A store by a CPU that
	// is not the exclusive owner bumps the version; every other CPU's
	// cached copy of the unit then fails its version check and misses,
	// exactly the invalidation a MESI directory would deliver, while an
	// owner's repeated stores stay free as in the M state. This is what
	// produces the paper's sustained memory traffic in iterative codes —
	// without it, steady-state stencil sweeps would run entirely from
	// private caches and page placement would stop mattering.
	cohShift  uint
	lineState []uint32

	// Bulk-access fast path: l1Shift segments runs by L1 line inside a
	// coherence unit; bulkOK gates the path on the hierarchy nesting it
	// assumes (L1 line <= L2 line <= page) and on Config.ScalarRuns.
	l1Shift uint
	bulkOK  bool

	settleAcc []int64 // per-node tally scratch reused across barriers

	hooks  []BarrierHook
	tracer trace.Tracer
	rec    *Recorder // L2-miss stream recorder (stream.go), nil when not recording

	// freeRun suspends every virtual-time effect of execution: touches
	// charge nothing, clocks freeze, barrier settlement (and its hooks)
	// becomes a no-op and the tracer is hidden. The steady-state
	// fast-forward engine uses it to advance a kernel's *numerical* state
	// through extrapolated iterations while the machine's clocks and
	// counters have already been advanced analytically.
	freeRun bool

	// refCounting gates page reference-counter accumulation (CountMissN
	// on L2 misses). The NAS driver clears it for runs in which no
	// attached engine or sampler can ever read the counters — the rows
	// are then dead state whose upkeep is pure host cost. Counter-visible
	// outputs are unaffected by construction: the rows feed only kmig
	// scans, UPMlib invocations and the metrics sampler.
	refCounting bool
}

// SetTracer attaches an event tracer to the machine; nil detaches it.
// The machine emits page-fault and replica-collapse shootdown events;
// the omp runtime and the migration engines read the tracer through
// Tracer to emit theirs. Tracing is observation only — it never advances
// a clock — so traced and untraced runs are bit-identical (proven by
// internal/nas's tracing equivalence test).
func (m *Machine) SetTracer(t trace.Tracer) { m.tracer = t }

// Tracer returns the attached tracer, or nil. During free-run it returns
// nil: extrapolated iterations must not emit events, since their virtual
// time has already been accounted for analytically.
func (m *Machine) Tracer() trace.Tracer {
	if m.freeRun {
		return nil
	}
	return m.tracer
}

// SetFreeRun switches free-run mode on or off. In free-run mode simulated
// accesses return data without charging clocks or counters, Settle is a
// no-op (barrier hooks do not fire), and Tracer reports nil. See the
// freeRun field for the intended use.
func (m *Machine) SetFreeRun(on bool) { m.freeRun = on }

// FreeRun reports whether the machine is in free-run mode.
func (m *Machine) FreeRun() bool { return m.freeRun }

// SetRefCounting enables or disables page reference-counter accumulation.
// It defaults to on; callers may switch it off for runs where no engine
// or sampler ever reads the counters (see the refCounting field).
func (m *Machine) SetRefCounting(on bool) { m.refCounting = on }

// RefCounting reports whether page reference counters accumulate.
func (m *Machine) RefCounting() bool { return m.refCounting }

// New builds a machine. Zero fields of cfg that have a default are filled
// in from DefaultConfig.
func New(cfg Config) (*Machine, error) {
	def := DefaultConfig()
	if cfg.Nodes == 0 {
		cfg.Nodes = def.Nodes
	}
	if cfg.CPUsPerNode == 0 {
		cfg.CPUsPerNode = def.CPUsPerNode
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = def.PageBytes
	}
	if cfg.ArenaPages == 0 {
		cfg.ArenaPages = def.ArenaPages
	}
	if cfg.L1Bytes == 0 {
		cfg.L1Bytes, cfg.L1Line, cfg.L1Ways = def.L1Bytes, def.L1Line, def.L1Ways
	}
	if cfg.L2Bytes == 0 {
		cfg.L2Bytes, cfg.L2Line, cfg.L2Ways = def.L2Bytes, def.L2Line, def.L2Ways
	}
	if cfg.TLBEntries == 0 {
		cfg.TLBEntries, cfg.TLBWays = def.TLBEntries, def.TLBWays
	}
	if cfg.Lat.MemByHops == nil {
		cfg.Lat = def.Lat
	}
	if cfg.PageBytes <= 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("machine: page size %d not a power of two", cfg.PageBytes)
	}
	if cfg.CPUsPerNode <= 0 {
		return nil, fmt.Errorf("machine: %d CPUs per node invalid", cfg.CPUsPerNode)
	}
	// The CPU cap, checked before anything is allocated.
	factors := []int{cfg.CPUsPerNode, cfg.Nodes}
	if cfg.Topo != nil {
		factors = factors[:1]
		for _, lv := range cfg.Topo {
			factors = append(factors, lv.Arity)
		}
	}
	ncpu, ok := topology.CountCPUs(factors...)
	if !ok {
		return nil, fmt.Errorf("machine: CPUs per node and node counts %v do not make 1 to %d CPUs (the coherence directory's 8-bit writer field)", factors, topology.MaxCPUs)
	}
	var topo topology.Topology
	if cfg.Topo != nil {
		h, err := topology.NewHierarchy(cfg.Topo)
		if err != nil {
			return nil, err
		}
		cfg.Nodes = h.Nodes()
		if extras := h.LatencyExtras(); extras != nil {
			// Per-level latency ladder: local latency plus the summed
			// extras of the levels each distance crosses. A fresh slice —
			// the configured ladder may be shared (DefaultConfig's).
			mb := make([]int64, len(extras))
			for d, ex := range extras {
				mb[d] = cfg.Lat.MemByHops[0] + ex
			}
			cfg.Lat.MemByHops = mb
		}
		topo = h
	} else {
		hc, err := topology.NewHypercube(cfg.Nodes)
		if err != nil {
			return nil, err
		}
		topo = hc
	}
	pt, err := vm.New(topo, vm.Config{
		Pages:         cfg.ArenaPages,
		Policy:        cfg.Placement,
		Seed:          cfg.Seed,
		CounterBits:   cfg.CounterBits,
		CapacityPages: cfg.CapacityPages,
	})
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:         cfg,
		Topo:        topo,
		PT:          pt,
		Lat:         cfg.Lat,
		pageShift:   uint(bits.TrailingZeros(uint(cfg.PageBytes))),
		cohShift:    uint(bits.TrailingZeros(uint(cfg.L2Line))),
		l1Shift:     uint(bits.TrailingZeros(uint(cfg.L1Line))),
		settleAcc:   make([]int64, cfg.Nodes),
		refCounting: true,
	}
	m.bulkOK = !cfg.ScalarRuns && cfg.L1Line <= cfg.L2Line && cfg.L2Line <= cfg.PageBytes
	m.lineState = make([]uint32, (uint64(cfg.ArenaPages)<<m.pageShift)>>m.cohShift)
	m.cpus = make([]*CPU, ncpu)
	for i := range m.cpus {
		l1, err := memsys.NewCache(cfg.L1Bytes, cfg.L1Line, cfg.L1Ways)
		if err != nil {
			return nil, err
		}
		l2, err := memsys.NewCache(cfg.L2Bytes, cfg.L2Line, cfg.L2Ways)
		if err != nil {
			return nil, err
		}
		tlb, err := memsys.NewTLB(cfg.TLBEntries, cfg.TLBWays)
		if err != nil {
			return nil, err
		}
		m.cpus[i] = &CPU{
			ID:      i,
			NodeID:  i / cfg.CPUsPerNode,
			m:       m,
			l1:      l1,
			l2:      l2,
			tlb:     tlb,
			nodeAcc: make([]int64, cfg.Nodes),
		}
	}
	return m, nil
}

// MustNew is New for statically known configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NumCPUs returns the processor count.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// CPU returns processor i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// CPUs returns all processors in id order.
func (m *Machine) CPUs() []*CPU { return m.cpus }

// PageBytes returns the page size.
func (m *Machine) PageBytes() int { return m.Cfg.PageBytes }

// PageShift returns log2 of the page size.
func (m *Machine) PageShift() uint { return m.pageShift }

// VPN returns the virtual page number of an address.
func (m *Machine) VPN(addr uint64) uint64 { return addr >> m.pageShift }

// AddBarrierHook registers fn to run at every barrier settlement.
func (m *Machine) AddBarrierHook(fn BarrierHook) { m.hooks = append(m.hooks, fn) }

// Alloc reserves n bytes of simulated address space, page-aligned so that
// distinct arrays never share a page, and returns the base address.
func (m *Machine) Alloc(n int) uint64 {
	if n <= 0 {
		panic(fmt.Sprintf("machine: Alloc(%d)", n))
	}
	base := m.heap
	pages := (uint64(n) + uint64(m.Cfg.PageBytes) - 1) >> m.pageShift
	m.heap += pages << m.pageShift
	if m.VPN(m.heap) > uint64(m.PT.Pages()) {
		panic(fmt.Sprintf("machine: arena exhausted allocating %d bytes (%d pages in arena)", n, m.PT.Pages()))
	}
	return base
}

// AllocatedPages returns the number of pages allocated so far; migration
// engines scan only this prefix of the arena.
func (m *Machine) AllocatedPages() uint64 { return m.VPN(m.heap) }

// PageMoveCost returns the cost of moving one page as part of a batched
// range migration, without the TLB shootdown: the amortised fixed kernel
// work plus the page copy.
func (m *Machine) PageMoveCost() int64 {
	return m.Lat.MigratePageBatched + int64(m.Cfg.PageBytes)*m.Lat.MigrateBytePS
}

// ShootdownCost returns the cost of one machine-wide TLB shootdown round
// (one interprocessor interrupt per CPU).
func (m *Machine) ShootdownCost() int64 {
	return int64(len(m.cpus)) * m.Lat.ShootdownPerCPU
}

// MigrationCost returns the cost of one stand-alone coherent page
// migration: full fixed kernel work, the page copy, and one TLB-shootdown
// interrupt per processor. The interrupt-driven kernel engine pays this
// full price per page; UPMlib batches the moves of one invocation
// (PageMoveCost each plus a single ShootdownCost for the batch).
func (m *Machine) MigrationCost() int64 {
	return m.Lat.MigratePage +
		int64(m.Cfg.PageBytes)*m.Lat.MigrateBytePS +
		m.ShootdownCost()
}

// Settle ends the region that started at start for the given CPUs: it
// applies the contention model to the per-node access tallies, advances
// every clock past queueing delays, enforces the saturation floor, runs
// barrier hooks, and returns the settled time. Callers (the omp runtime)
// then assign the returned time to every participating clock.
func (m *Machine) Settle(cpus []*CPU, start int64) int64 {
	if m.freeRun {
		// Free-run: clocks are frozen at their extrapolated values and
		// barrier hooks (the kernel migration engine) must not fire.
		return start
	}
	if m.rec != nil {
		for _, c := range cpus {
			m.rec.check(c)
		}
	}
	tmax := start
	for _, c := range cpus {
		if c.clock > tmax {
			tmax = c.clock
		}
	}
	acc := m.settleAcc
	for n := range acc {
		acc[n] = 0
	}
	for _, c := range cpus {
		for n, a := range c.nodeAcc {
			acc[n] += a
		}
	}
	per, floor := memsys.ContentionDelays(acc, tmax-start, m.Lat.MemService)
	tb := start
	for _, c := range cpus {
		for n, a := range c.nodeAcc {
			if a != 0 {
				c.clock += a * per[n]
				c.nodeAcc[n] = 0
			}
		}
		if c.clock > tb {
			tb = c.clock
		}
	}
	if f := start + floor; f > tb {
		tb = f
	}
	for _, h := range m.hooks {
		tb += h(tb)
	}
	for _, c := range cpus {
		c.clock = tb
		if m.rec != nil {
			m.rec.rebase(c)
		}
	}
	return tb
}

// countersPerCPU is the number of AppendCounters slots each CPU
// contributes: clock, the seven CPUStats fields, and hits/misses/tick for
// each private cache.
const countersPerCPU = 1 + 7 + 3 + 3

// AppendCounters appends the machine's complete monotone counter state to
// dst and returns the extended slice: per CPU the virtual clock, the
// seven CPUStats fields and each private cache's hits, misses and LRU
// tick; then the page table's fault, migration, replica and collapse
// totals. The layout is fixed so that the element-wise difference of two
// snapshots taken at consecutive iteration boundaries is the iteration's
// delta vector, and so that ApplyCounterDelta can fast-forward the same
// state by a multiple of that delta.
func (m *Machine) AppendCounters(dst []int64) []int64 {
	for _, c := range m.cpus {
		dst = append(dst, c.clock,
			int64(c.stat.Accesses), int64(c.stat.L1Miss), int64(c.stat.L2Miss),
			int64(c.stat.TLBMiss), int64(c.stat.LocalMem), int64(c.stat.RemoteMem),
			int64(c.stat.Faults))
		h1, m1 := c.l1.Stats()
		h2, m2 := c.l2.Stats()
		dst = append(dst, int64(h1), int64(m1), int64(c.l1.Tick()),
			int64(h2), int64(m2), int64(c.l2.Tick()))
	}
	return append(dst, m.PT.Faults(), m.PT.Migrations(), m.PT.ReplicaCreations(), m.PT.Collapses())
}

// CounterLen returns the length AppendCounters adds to its argument.
func (m *Machine) CounterLen() int { return len(m.cpus)*countersPerCPU + 4 }

// AppendCounterNames appends one name per AppendCounters slot, in the
// same order, so index i of a counter delta vector can be reported by
// name (the steady-state detector's why-not diagnostics do). Names, not
// values: nothing here reads simulation state.
func (m *Machine) AppendCounterNames(dst []string) []string {
	for i := range m.cpus {
		for _, s := range [...]string{"clock", "accesses", "l1_miss", "l2_miss",
			"tlb_miss", "local_mem", "remote_mem", "faults",
			"l1_hits", "l1_misses", "l1_tick", "l2_hits", "l2_misses", "l2_tick"} {
			dst = append(dst, fmt.Sprintf("cpu%d_%s", i, s))
		}
	}
	return append(dst, "pt_faults", "pt_migrations", "pt_replicas", "pt_collapses")
}

// ApplyCounterDelta advances every counter AppendCounters reports by k
// repetitions of the per-iteration delta vector — the steady-state
// fast-forward. delta must have CounterLen elements laid out exactly as
// AppendCounters produces them.
func (m *Machine) ApplyCounterDelta(delta []int64, k int64) {
	if len(delta) != m.CounterLen() {
		panic(fmt.Sprintf("machine: counter delta has %d elements, want %d", len(delta), m.CounterLen()))
	}
	i := 0
	for _, c := range m.cpus {
		d := delta[i : i+countersPerCPU]
		c.clock += d[0] * k
		c.stat.Accesses += uint64(d[1] * k)
		c.stat.L1Miss += uint64(d[2] * k)
		c.stat.L2Miss += uint64(d[3] * k)
		c.stat.TLBMiss += uint64(d[4] * k)
		c.stat.LocalMem += uint64(d[5] * k)
		c.stat.RemoteMem += uint64(d[6] * k)
		c.stat.Faults += uint64(d[7] * k)
		c.l1.FastForward(uint64(d[8]), uint64(d[9]), uint64(d[10]), k)
		c.l2.FastForward(uint64(d[11]), uint64(d[12]), uint64(d[13]), k)
		i += countersPerCPU
	}
	m.PT.FastForwardCounters(delta[i]*k, delta[i+1]*k, delta[i+2]*k, delta[i+3]*k)
}

// Stats aggregates the memory-system counters of every CPU.
func (m *Machine) Stats() Stats {
	var s Stats
	for _, c := range m.cpus {
		s.L1Miss += c.stat.L1Miss
		s.L2Miss += c.stat.L2Miss
		s.TLBMiss += c.stat.TLBMiss
		s.LocalMem += c.stat.LocalMem
		s.RemoteMem += c.stat.RemoteMem
		s.Accesses += c.stat.Accesses
		s.Faults += c.stat.Faults
	}
	s.Migrations = m.PT.Migrations()
	return s
}

// Stats summarises memory-system activity. The JSON tags are the wire
// form used by the sweep result store and the sweepd job API.
type Stats struct {
	Accesses   uint64 `json:"accesses"`
	L1Miss     uint64 `json:"l1_miss"`
	L2Miss     uint64 `json:"l2_miss"`
	TLBMiss    uint64 `json:"tlb_miss"`
	LocalMem   uint64 `json:"local_mem"`  // L2 misses served by the local node
	RemoteMem  uint64 `json:"remote_mem"` // L2 misses served remotely
	Faults     uint64 `json:"faults"`
	Migrations int64  `json:"migrations"`
}

// RemoteRatio returns the fraction of memory accesses served remotely.
func (s Stats) RemoteRatio() float64 {
	t := s.LocalMem + s.RemoteMem
	if t == 0 {
		return 0
	}
	return float64(s.RemoteMem) / float64(t)
}

// CPU is one simulated processor: private L1/L2/TLB, a picosecond clock,
// and per-region access tallies for the contention model. A CPU must only
// be driven from one goroutine at a time (the omp runtime guarantees
// this).
type CPU struct {
	ID     int
	NodeID int

	m     *Machine
	clock int64
	l1    *memsys.Cache
	l2    *memsys.Cache
	tlb   *memsys.TLB

	nodeAcc []int64 // memory accesses per home node in the current region
	stat    CPUStats
}

// CPUStats counts this CPU's memory-system events.
type CPUStats struct {
	Accesses  uint64
	L1Miss    uint64
	L2Miss    uint64
	TLBMiss   uint64
	LocalMem  uint64
	RemoteMem uint64
	Faults    uint64
}

// Machine returns the CPU's machine.
func (c *CPU) Machine() *Machine { return c.m }

// Now returns the CPU's virtual clock in picoseconds.
func (c *CPU) Now() int64 { return c.clock }

// SetClock forces the CPU clock; the omp runtime uses it at fork/join.
// In free-run mode the clock is frozen at its extrapolated value.
func (c *CPU) SetClock(t int64) {
	if c.m.freeRun {
		return
	}
	r := c.m.rec
	if r != nil {
		r.check(c)
	}
	c.clock = t
	if r != nil {
		r.rebase(c)
	}
}

// Advance adds ps picoseconds of pure computation to the clock.
func (c *CPU) Advance(ps int64) {
	if c.m.freeRun {
		return
	}
	r := c.m.rec
	if r != nil {
		r.check(c)
	}
	c.clock += ps
	if r != nil {
		r.rebase(c)
	}
}

// Flops charges n floating-point operations of computation.
func (c *CPU) Flops(n int) {
	if c.m.freeRun {
		return
	}
	c.clock += int64(n) * c.m.Lat.FlopCost
}

// Stat returns the CPU's event counters.
func (c *CPU) Stat() CPUStats { return c.stat }

// Load performs one simulated read of addr.
func (c *CPU) Load(addr uint64) { c.touch(addr, false) }

// Store performs one simulated write of addr, invalidating every other
// CPU's cached copy of the coherence unit.
func (c *CPU) Store(addr uint64) { c.touch(addr, true) }

// LoadRun performs n simulated reads of addr, addr+stride, ...,
// addr+(n-1)*stride (stride in bytes). It charges exactly what n Load
// calls would — same clocks, same miss counts, same reference-counter
// totals — but pays the directory, cache, TLB and page-table machinery
// once per line or page instead of once per element (see DESIGN.md,
// "Bulk-access fast path").
func (c *CPU) LoadRun(addr uint64, n int, stride uint64) { c.touchRun(addr, n, stride, false) }

// StoreRun performs n simulated writes of addr, addr+stride, ...,
// addr+(n-1)*stride, with the same per-event equivalence to n Store calls
// as LoadRun has to Load.
func (c *CPU) StoreRun(addr uint64, n int, stride uint64) { c.touchRun(addr, n, stride, true) }

// touchRun is the bulk-access engine behind LoadRun and StoreRun. The run
// is segmented page -> coherence unit (L2 line); touchUnit charges each
// unit's cache traffic and memory charges the page's L2 misses once, while
// clocks and counters advance by the element count, so the machine state
// it leaves behind is bit-identical to the per-element ladder in touch.
// Strides wider than an L2 line (and degenerate strides) gain nothing from
// batching and fall back to the scalar loop.
func (c *CPU) touchRun(addr uint64, n int, stride uint64, write bool) {
	m := c.m
	if n <= 0 || m.freeRun {
		return
	}
	if !m.bulkOK || stride == 0 || stride > uint64(m.Cfg.L2Line) {
		for i := 0; i < n; i++ {
			c.touch(addr+uint64(i)*stride, write)
		}
		return
	}
	c.stat.Accesses += uint64(n)
	tracking := write && m.PT.WriteTracking()
	shift := uint(bits.TrailingZeros64(stride))
	// Short vector runs (the solvers' per-point component blocks) almost
	// always land inside a single coherence unit; charge them with no
	// segmentation loops.
	if last := addr + uint64(n-1)*stride; last>>m.cohShift == addr>>m.cohShift && !tracking {
		if c.touchUnit(addr, last, n, stride, shift, write) {
			c.memory(addr>>m.pageShift, write, 1)
		}
		return
	}
	for i := 0; i < n; {
		a := addr + uint64(i)*stride
		vpn := a >> m.pageShift
		nPage := min(n-i, segLen((vpn+1)<<m.pageShift-1-a, stride, shift))
		if tracking {
			c.markWritten(vpn)
		}
		// The memory path is charged once for all of the page's L2
		// misses, and only when there is one, as the scalar path resolves
		// the page only when an access reaches memory.
		misses := 0
		for j := 0; j < nPage; {
			aj := a + uint64(j)*stride
			nUnit := min(nPage-j, segLen((aj>>m.cohShift+1)<<m.cohShift-1-aj, stride, shift))
			if c.touchUnit(aj, aj+uint64(nUnit-1)*stride, nUnit, stride, shift, write) {
				misses++
			}
			j += nUnit
		}
		if misses > 0 {
			c.memory(vpn, write, misses)
		}
		i += nPage
	}
}

// segLen returns how many elements of a run with the given stride (shift
// is its trailing-zero count) lie from the current one to a boundary rem
// bytes ahead, inclusive. For the power-of-two strides every caller uses,
// a shift replaces the (hot) hardware division.
func segLen(rem, stride uint64, shift uint) int {
	if stride == 1<<shift {
		return int(rem>>shift) + 1
	}
	return int(rem/stride) + 1
}

// touchUnit charges the cache traffic of n accesses, addr to last, that
// lie within one coherence unit (and therefore one page, spanning at most
// L2Line/L1Line L1 lines), and reports whether they missed in L2; the
// caller charges the memory path behind the miss. Event for event it
// matches the scalar ladder: one coherence decision, then per-L1-line
// probes in which the unit's first element validates against ver and
// every later one sees the just-stamped newVer, as repeated scalar
// touches would. L2 is probed once for all L1-missing lines, with the
// version of the first missing line deciding the (at most one) L2 miss.
func (c *CPU) touchUnit(addr, last uint64, n int, stride uint64, shift uint, write bool) bool {
	m := c.m
	lat := &m.Lat
	ver, newVer := c.coherence(addr>>m.cohShift, write)
	c.clock += int64(n) * lat.L1Hit
	probes := 0
	var probeAddr uint64
	var probeVer uint32
	if addr>>m.l1Shift == last>>m.l1Shift {
		if !c.l1.AccessRange(addr, n, ver, newVer) {
			c.stat.L1Miss++
			probes, probeAddr, probeVer = 1, addr, ver
		}
	} else if stride == 1<<shift && stride <= uint64(m.Cfg.L1Line) {
		// The unit's lines are consecutive and evenly filled: one batched
		// probe covers them all.
		nLines := int(last>>m.l1Shift - addr>>m.l1Shift + 1)
		first := int(((addr>>m.l1Shift+1)<<m.l1Shift-1-addr)>>shift) + 1
		perLine := int(uint64(m.Cfg.L1Line) >> shift)
		miss, mAddr, mVer := c.l1.AccessLines(addr, nLines, first, perLine, n-first-(nLines-2)*perLine, ver, newVer)
		if miss > 0 {
			c.stat.L1Miss += uint64(miss)
			probes, probeAddr, probeVer = miss, mAddr, mVer
		}
	} else {
		v0 := ver
		for k := 0; k < n; {
			ak := addr + uint64(k)*stride
			nLine := min(n-k, segLen((ak>>m.l1Shift+1)<<m.l1Shift-1-ak, stride, shift))
			if !c.l1.AccessRange(ak, nLine, v0, newVer) {
				c.stat.L1Miss++
				if probes == 0 {
					probeAddr, probeVer = ak, v0
				}
				probes++
			}
			v0 = newVer
			k += nLine
		}
	}
	if probes == 0 {
		return false
	}
	if c.l2.AccessRange(probeAddr, probes, probeVer, newVer) {
		c.clock += int64(probes) * lat.L2Hit
		return false
	}
	c.clock += int64(probes-1) * lat.L2Hit
	return true
}

// touch performs one simulated memory reference to addr, walking
// L1 -> L2 -> memory and charging the clock at each level. It is the
// per-element reference ladder the bulk path is tested against.
func (c *CPU) touch(addr uint64, write bool) {
	m := c.m
	if m.freeRun {
		return
	}
	lat := &m.Lat
	c.stat.Accesses++
	if write && m.PT.WriteTracking() {
		c.markWritten(addr >> m.pageShift)
	}
	ver, newVer := c.coherence(addr>>m.cohShift, write)
	c.clock += lat.L1Hit
	if c.l1.Access(addr, ver, newVer) {
		return
	}
	c.stat.L1Miss++
	if c.l2.Access(addr, ver, newVer) {
		c.clock += lat.L2Hit
		return
	}
	c.memory(addr>>m.pageShift, write, 1)
}

// memory charges n L2 misses to page vpn: the first-touch fault, the TLB,
// the local or remote memory latency, the page reference counters and the
// node's contention tally. It is the only code that runs behind an L2
// miss, so the only place page placement and migration enter a CPU's
// clock. The Origin2000 counts *memory* accesses, i.e. L2 misses, which is
// why cache-friendly code barely moves the counters.
func (c *CPU) memory(vpn uint64, write bool, n int) {
	m := c.m
	lat := &m.Lat
	if m.rec != nil {
		m.rec.miss(c, vpn, write, n)
	}
	c.stat.L2Miss += uint64(n)
	home, gen, faulted := m.PT.Resolve(vpn, c.NodeID)
	if faulted {
		c.stat.Faults++
		c.clock += lat.PageFault
		if m.tracer != nil {
			m.tracer.Emit(trace.Event{Time: c.clock, CPU: c.ID,
				Kind: trace.EvPageFault, Arg0: int64(vpn), Arg1: int64(home)})
		}
	}
	if !write && m.PT.HasReplicas(vpn) {
		// Reads are served by the closest copy (replication extension).
		home = m.PT.NearestCopy(vpn, c.NodeID)
	}
	if !c.tlb.LookupRun(vpn, gen, n) {
		c.stat.TLBMiss++
		c.clock += lat.TLBRefill
	}
	hops := m.Topo.Hops(c.NodeID, home)
	if hops == 0 {
		c.stat.LocalMem += uint64(n)
	} else {
		c.stat.RemoteMem += uint64(n)
	}
	c.clock += int64(n) * lat.MemLatency(hops)
	if m.refCounting {
		m.PT.CountMissN(vpn, c.NodeID, uint32(n))
	}
	c.nodeAcc[home] += int64(n)
	if m.rec != nil {
		m.rec.rebase(c)
	}
}

// markWritten logs a store to vpn for the replication extension. A write
// to a replicated page invalidates every read copy even when the store
// itself hits in a cache; the collapse is charged here.
func (c *CPU) markWritten(vpn uint64) {
	m := c.m
	if m.rec != nil {
		m.rec.Decline("write tracking")
	}
	if dropped := m.PT.MarkWritten(vpn); dropped > 0 {
		c.clock += m.Lat.MigratePage + m.ShootdownCost()
		if m.tracer != nil {
			m.tracer.Emit(trace.Event{Time: c.clock, CPU: c.ID,
				Kind: trace.EvShootdown, Name: "collapse", Arg0: 1, Arg1: int64(vpn)})
		}
	}
}

// coherence runs the directory protocol for one access to a unit and
// returns the version to validate cached copies against and the version
// to stamp this CPU's refreshed entries with.
//
//   - read: copies at the current version are valid; a read by a CPU other
//     than the last writer marks the unit shared;
//   - write by the exclusive owner (last writer, nothing shared since):
//     free, as in the MESI M state;
//   - any other write: bump the version (invalidating every other cached
//     copy at its next use), take ownership, clear the shared flag.
func (c *CPU) coherence(unit uint64, write bool) (ver, newVer uint32) {
	p := &c.m.lineState[unit]
	word, me := *p, uint32(c.ID)<<1
	ver = word >> 9
	switch {
	case !write:
		if word&0x1fe != me {
			*p = word | 1
		}
		return ver, ver
	case word&0x1ff == me:
		return ver, ver // exclusive owner
	}
	*p = (ver+1)<<9 | me
	return ver, ver + 1
}

// FlushCaches empties the CPU's caches and TLB (used by tests and by the
// latency probe to construct known hierarchy states).
func (c *CPU) FlushCaches() {
	c.l1.Flush()
	c.l2.Flush()
	c.tlb.Flush()
}

// FlushL1 empties only the L1 cache (latency probe).
func (c *CPU) FlushL1() { c.l1.Flush() }

// FlushL1L2 empties both caches but keeps the TLB warm (latency probe).
func (c *CPU) FlushL1L2() {
	c.l1.Flush()
	c.l2.Flush()
}

// CacheStats exposes hit/miss counters of the private caches.
func (c *CPU) CacheStats() (l1Hits, l1Misses, l2Hits, l2Misses uint64) {
	l1Hits, l1Misses = c.l1.Stats()
	l2Hits, l2Misses = c.l2.Stats()
	return
}
