// Package machine assembles the simulated ccNUMA multiprocessor: CPUs with
// private caches and TLBs, memory nodes on a hierarchical interconnect
// (the Origin2000's hypercube by default), a paged address space, and
// integer-picosecond virtual time. Application code (the NAS kernels, the
// examples) performs every array element access through this package,
// which charges the access to the accessing CPU's clock according to
// where it is served — L1, L2, local memory, or an N-hop remote memory —
// exactly the ladder of the paper's Table 1.
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

	"upmgo/internal/counter"
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
	ArenaPages    int   // size of the simulated address space, the bound on the heap
	CapacityPages int64 // per-node page capacity, 0 = unlimited

	L1Bytes, L1Line, L1Ways int
	L2Bytes, L2Line, L2Ways int
	TLBEntries, TLBWays     int

	Lat memsys.Latency

	// Topo, when non-nil, gives the interconnect's levels (outermost
	// first; see topology.Hierarchy) and Nodes is overridden by their
	// product. Nil builds the hypercube over Nodes, topology.Cube. When
	// any level carries ExtraPS, the memory ladder is re-derived per hop
	// distance as local latency + the level extras — the per-level
	// generalization of the paper's Table 1; otherwise the configured
	// (or default Origin2000) ladder stays in force, which is why a
	// cube-shaped Topo runs bit-identically to a nil one.
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

// versionLimit is one past the largest version the directory word's
// 23-bit version field holds (see Machine.lineState).
const versionLimit = 1 << 23

// Machine is one simulated ccNUMA multiprocessor. It is not safe to share
// a Machine between concurrently running teams.
type Machine struct {
	Cfg  Config
	Topo *topology.Hierarchy
	PT   *vm.PageTable
	// Lat is the timing model. New derives each CPU's memory latency row
	// from its ladder, so the ladder is fixed once the machine is built.
	Lat memsys.Latency

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
	// private caches and page placement would stop mattering. Versions
	// count modulo versionLimit. Alloc grows the directory with the heap;
	// noDir is set once DropCacheState has released it for good.
	cohShift  uint
	lineState []uint32
	noDir     bool

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
	var topo *topology.Hierarchy
	var err error
	if cfg.Topo != nil {
		topo, err = topology.NewHierarchy(cfg.Topo)
	} else {
		topo, err = topology.Cube(cfg.Nodes)
	}
	if err != nil {
		return nil, err
	}
	cfg.Nodes = topo.Nodes()
	if extras := topo.LatencyExtras(); extras != nil {
		// Per-level latency ladder: local latency plus the summed
		// extras of the levels each distance crosses. A fresh slice —
		// the configured ladder may be shared (DefaultConfig's).
		mb := make([]int64, len(extras))
		for d, ex := range extras {
			mb[d] = cfg.Lat.MemByHops[0] + ex
		}
		cfg.Lat.MemByHops = mb
	}
	// The page table and the directory cover the heap, not the arena:
	// Alloc grows both as it hands out pages. The table starts with one
	// page, the least vm.New builds.
	pt, err := vm.New(topo, vm.Config{
		Pages:         1,
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
	// The caches and TLBs are built with the directory, by Alloc.
	for _, err := range []error{memsys.CheckCache(cfg.L1Bytes, cfg.L1Line, cfg.L1Ways),
		memsys.CheckCache(cfg.L2Bytes, cfg.L2Line, cfg.L2Ways),
		memsys.CheckTLB(cfg.TLBEntries, cfg.TLBWays)} {
		if err != nil {
			return nil, err
		}
	}
	rows := memRows(topo, &m.Lat)
	m.cpus = make([]*CPU, ncpu)
	for i := range m.cpus {
		node := i / cfg.CPUsPerNode
		m.cpus[i] = &CPU{
			ID:      i,
			NodeID:  node,
			m:       m,
			mem:     rows[node],
			nodeAcc: make([]int64, cfg.Nodes),
		}
	}
	return m, nil
}

// memRows returns, for every node, the cost of an L2 miss served by each
// home node and whether that home is local (zero hops), both from
// topo's distances and lat's ladder. CPUs of one node share a row.
func memRows(topo *topology.Hierarchy, lat *memsys.Latency) [][]memCost {
	n := topo.Nodes()
	rows := make([][]memCost, n)
	costs := make([]memCost, n*n)
	for a := range rows {
		row := costs[a*n : (a+1)*n]
		for h := range row {
			hops := topo.Hops(a, h)
			row[h] = memCost{ps: lat.MemLatency(hops), local: hops == 0}
		}
		rows[a] = row
	}
	return rows
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
// distinct arrays never share a page, and returns the base address. It
// grows the page table and the coherence directory to cover the heap;
// the arena bounds the heap. The directory's first growth also builds
// every CPU's caches and TLB, so a machine that drops its cache-side
// state before it allocates (a stream replay's) never builds them.
func (m *Machine) Alloc(n int) uint64 {
	if n <= 0 {
		panic(fmt.Sprintf("machine: Alloc(%d)", n))
	}
	base := m.heap
	pages := (uint64(n) + uint64(m.Cfg.PageBytes) - 1) >> m.pageShift
	m.heap += pages << m.pageShift
	if m.VPN(m.heap) > uint64(m.Cfg.ArenaPages) {
		panic(fmt.Sprintf("machine: arena exhausted allocating %d bytes (%d pages in arena)", n, m.Cfg.ArenaPages))
	}
	m.PT.Grow(int(m.VPN(m.heap)))
	if units := int((m.heap + 1<<m.cohShift - 1) >> m.cohShift); !m.noDir && units > len(m.lineState) {
		if m.lineState == nil {
			cfg := &m.Cfg
			for _, c := range m.cpus {
				c.l1 = memsys.MustCache(cfg.L1Bytes, cfg.L1Line, cfg.L1Ways)
				c.l2 = memsys.MustCache(cfg.L2Bytes, cfg.L2Line, cfg.L2Ways)
				c.tlb = memsys.MustTLB(cfg.TLBEntries, cfg.TLBWays)
			}
		}
		m.lineState = append(m.lineState, make([]uint32, units-len(m.lineState))...)
	}
	return base
}

// DropCacheState releases the machine's cache-side state — the coherence
// directory, every CPU's cache lines and its TLB — for a machine that
// simulates no access from now on: a stream replay, which takes every
// outcome from its log, or a compressed recording past its repeat, which
// only runs free. CPUStats, the only count of cache traffic, survives.
// Alloc grows no directory afterwards, and a simulated access panics.
func (m *Machine) DropCacheState() {
	m.lineState, m.noDir = nil, true
	for _, c := range m.cpus {
		c.l1, c.l2, c.tlb = nil, nil, nil
	}
}

// CacheStateDropped reports whether DropCacheState has run.
func (m *Machine) CacheStateDropped() bool { return m.noDir }

// outsideHeap panics for a simulated access to addr that the directory
// does not cover.
func (m *Machine) outsideHeap(addr uint64) {
	if m.noDir {
		panic(fmt.Sprintf("machine: access to %#x on a machine without cache-side state (a replay, or a recording past its repeat)", addr))
	}
	panic(fmt.Sprintf("machine: access to %#x past the heap (%d bytes allocated)", addr, m.heap))
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

// CounterTable appends the machine's complete monotone counter state to t:
// per CPU the virtual clock and the seven CPUStats fields, then the page
// table's. CPUStats is the only count of a CPU's cache, TLB and fault
// traffic: its L1 and L2 hits and misses are Accesses − L1Miss, L1Miss,
// L1Miss − L2Miss and L2Miss, and the page table's faults are the sum of
// every CPU's Faults.
func (m *Machine) CounterTable(t counter.Table) counter.Table {
	for _, c := range m.cpus {
		p, s := fmt.Sprintf("cpu%d_", c.ID), &c.stat
		t = append(t, counter.Of(p+"clock", &c.clock),
			counter.Of(p+"accesses", &s.Accesses), counter.Of(p+"l1_miss", &s.L1Miss),
			counter.Of(p+"l2_miss", &s.L2Miss), counter.Of(p+"tlb_miss", &s.TLBMiss),
			counter.Of(p+"local_mem", &s.LocalMem), counter.Of(p+"remote_mem", &s.RemoteMem),
			counter.Of(p+"faults", &s.Faults))
	}
	return m.PT.CounterTable(t)
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
	// The caches and the TLB are nil until the machine's first Alloc,
	// and again once DropCacheState has run: a stream replay takes its
	// outcomes from the log (replayMiss) and never has them.
	l1  *memsys.Cache
	l2  *memsys.Cache
	tlb *memsys.TLB
	mem []memCost // by home node: this CPU's memory latency row

	nodeAcc []int64 // memory accesses per home node in the current region
	stat    CPUStats
}

// memCost is the cost of an L2 miss served by one home node, and whether
// that node is local to the missing CPU.
type memCost struct {
	ps    int64
	local bool
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
		if !c.l1.Access(addr, ver, newVer) {
			c.stat.L1Miss++
			probes, probeAddr, probeVer = 1, addr, ver
		}
	} else if stride <= uint64(m.Cfg.L1Line) {
		// The unit's lines are consecutive: one batched probe covers
		// them all.
		nLines := int(last>>m.l1Shift - addr>>m.l1Shift + 1)
		miss, mAddr, mVer := c.l1.AccessLines(addr, nLines, 0, 0, 0, ver, newVer)
		if miss > 0 {
			c.stat.L1Miss += uint64(miss)
			probes, probeAddr, probeVer = miss, mAddr, mVer
		}
	} else {
		v0 := ver
		for k := 0; k < n; {
			ak := addr + uint64(k)*stride
			nLine := min(n-k, segLen((ak>>m.l1Shift+1)<<m.l1Shift-1-ak, stride, shift))
			if !c.l1.Access(ak, v0, newVer) {
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
	if c.l2.Access(probeAddr, probeVer, newVer) {
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
// node's contention tally. It and its replay twin replayMiss are the only
// code that runs behind an L2 miss, so the only place page placement and
// migration enter a CPU's clock. The Origin2000 counts *memory* accesses,
// i.e. L2 misses, which is why cache-friendly code barely moves the
// counters.
func (c *CPU) memory(vpn uint64, write bool, n int) {
	m := c.m
	if m.rec != nil {
		m.rec.miss(c, vpn, write, n, c.tlb.Resident(vpn))
	}
	home, gen := c.resolve(vpn, n)
	if !c.tlb.LookupRun(vpn, gen, n) {
		c.tlbMiss()
	}
	c.serve(vpn, home, write, n)
	if m.rec != nil {
		m.rec.rebase(c)
	}
}

// replayMiss is memory for a stream replay (DESIGN.md §17): the TLB's
// recency order depends only on the vpns looked up, so whether vpn was
// resident comes from the log, and placement reaches the lookup only
// through the page's generation. The lookup hits when vpn was resident
// and its generation is the one this CPU saw at its previous lookup of
// vpn, which tlb records.
func (c *CPU) replayMiss(vpn uint64, write bool, n int, resident bool, tlb lastSeen) {
	home, gen := c.resolve(vpn, n)
	if seen := tlb.see(c.ID, vpn, gen); !resident || !seen {
		c.tlbMiss()
	}
	c.serve(vpn, home, write, n)
}

// lastSeen is a replay's TLB state: whether each CPU's previous lookup
// of each heap page was at the page's current generation. Generations
// only grow, so that holds when the CPU looked the page up since the
// generation last changed. Each page takes words words: the generation
// of its newest lookup, then one bit per CPU, set while the CPU has not
// looked the page up at that generation. Zeroed, the table says every
// CPU last saw every page at generation 0, as a fresh page table does.
type lastSeen struct {
	words uint64
	tab   []uint64
}

// newLastSeen returns the table of cpus CPUs over pages pages.
func newLastSeen(cpus int, pages uint64) lastSeen {
	words := 1 + uint64(cpus+63)/64
	return lastSeen{words: words, tab: make([]uint64, words*pages)}
}

// see records cpu's lookup of vpn at generation gen and reports whether
// its previous lookup of vpn was at gen too.
func (t lastSeen) see(cpu int, vpn uint64, gen uint32) bool {
	i := vpn * t.words
	if t.tab[i] != uint64(gen) {
		e := t.tab[i : i+t.words]
		e[0] = uint64(gen)
		for j := range e[1:] {
			e[1+j] = ^uint64(0)
		}
	}
	w, bit := &t.tab[i+1+uint64(cpu>>6)], uint64(1)<<(cpu&63)
	seen := *w&bit == 0
	*w &^= bit
	return seen
}

// resolve counts n L2 misses to vpn, faults the page in on its first
// access, and returns the page's home and generation.
func (c *CPU) resolve(vpn uint64, n int) (home int, gen uint32) {
	m := c.m
	c.stat.L2Miss += uint64(n)
	home, gen, faulted := m.PT.Resolve(vpn, c.NodeID)
	if faulted {
		c.stat.Faults++
		c.clock += m.Lat.PageFault
		if m.tracer != nil {
			m.tracer.Emit(trace.Event{Time: c.clock, CPU: c.ID,
				Kind: trace.EvPageFault, Arg0: int64(vpn), Arg1: int64(home)})
		}
	}
	return home, gen
}

// tlbMiss charges one TLB refill.
func (c *CPU) tlbMiss() {
	c.stat.TLBMiss++
	c.clock += c.m.Lat.TLBRefill
}

// serve charges n L2 misses to the resolved page vpn on home: the
// memory latency, the page reference counters and the home's contention
// tally.
func (c *CPU) serve(vpn uint64, home int, write bool, n int) {
	m := c.m
	if !write && m.PT.HasReplicas(vpn) {
		// Reads are served by the closest copy (replication extension).
		home = m.PT.NearestCopy(vpn, c.NodeID)
	}
	cost := c.mem[home]
	if cost.local {
		c.stat.LocalMem += uint64(n)
	} else {
		c.stat.RemoteMem += uint64(n)
	}
	c.clock += int64(n) * cost.ps
	if m.refCounting {
		m.PT.CountMissN(vpn, c.NodeID, uint32(n))
	}
	c.nodeAcc[home] += int64(n)
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
	dir := c.m.lineState
	if unit >= uint64(len(dir)) {
		c.m.outsideHeap(unit << c.m.cohShift)
	}
	p := &dir[unit]
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
	newVer = (ver + 1) & (versionLimit - 1)
	*p = newVer<<9 | me
	return ver, newVer
}

// FlushCaches empties the CPU's caches and TLB (used by tests and by the
// latency probe to construct known hierarchy states). The flushes are
// no-ops on a CPU without them: nothing is cached before the first
// Alloc or after DropCacheState.
func (c *CPU) FlushCaches() {
	c.FlushL1L2()
	if c.tlb != nil {
		c.tlb.Flush()
	}
}

// FlushL1 empties only the L1 cache (latency probe).
func (c *CPU) FlushL1() {
	if c.l1 != nil {
		c.l1.Flush()
	}
}

// FlushL1L2 empties both caches but keeps the TLB warm (latency probe).
func (c *CPU) FlushL1L2() {
	if c.l2 != nil {
		c.l1.Flush()
		c.l2.Flush()
	}
}
