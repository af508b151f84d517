// Package vm implements the paged virtual memory of the simulated ccNUMA
// machine: the page table, the four page placement policies evaluated by
// the paper (first-touch, round-robin, random, worst-case/buddy), the
// per-page per-node saturating hardware reference counters of the
// Origin2000, and the page migration mechanics (capacity-constrained, with
// IRIX-style best-effort forwarding, generation bump for lazy TLB
// shootdown, and ping-pong freeze bits used by UPMlib).
package vm

import (
	"fmt"
	"sync/atomic"

	"upmgo/internal/topology"
)

// Policy selects how a page gets a home node.
type Policy int

const (
	// FirstTouch places a page on the node of the processor that first
	// touches it — the IRIX default and the scheme the NAS codes are
	// tuned for.
	FirstTouch Policy = iota
	// RoundRobin stripes pages over nodes by virtual page number
	// (IRIX DSM_PLACEMENT=ROUNDROBIN).
	RoundRobin
	// Random places each page on a pseudo-random node drawn from a
	// seeded hash of the page number, emulating the paper's
	// SIGSEGV-handler experiment with a balanced random spread.
	Random
	// WorstCase places every page on node 0, the allocation a best-fit
	// buddy allocator produces; the paper's worst case.
	WorstCase
)

// String returns the short labels used by the paper's figures.
func (p Policy) String() string {
	switch p {
	case FirstTouch:
		return "ft"
	case RoundRobin:
		return "rr"
	case Random:
		return "rand"
	case WorstCase:
		return "wc"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Policies lists every placement scheme in the order the paper plots them.
var Policies = []Policy{FirstTouch, RoundRobin, Random, WorstCase}

// MarshalText encodes the policy as its figure label ("ft", "rr", "rand",
// "wc"), so JSON sweep requests and store records read the way the paper
// writes them rather than as bare enum integers.
func (p Policy) MarshalText() ([]byte, error) {
	for _, q := range Policies {
		if p == q {
			return []byte(p.String()), nil
		}
	}
	return nil, fmt.Errorf("vm: cannot encode Policy(%d)", int(p))
}

// UnmarshalText decodes a figure label produced by MarshalText.
func (p *Policy) UnmarshalText(text []byte) error {
	for _, q := range Policies {
		if string(text) == q.String() {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("vm: unknown placement policy %q (want ft, rr, rand or wc)", text)
}

// CounterMax11 is the saturation value of the Origin2000's 11-bit per-node
// reference counters.
const CounterMax11 = 1<<11 - 1

// PageTable maps virtual page numbers to home nodes and carries the
// hardware reference counters. The address space is a single contiguous
// arena starting at page 0; the machine package allocates arrays from it.
//
// Concurrency: like its machine, a page table is driven by one goroutine
// at a time. Migrate and counter resets must be called from quiescent
// points (barriers or serial sections), which is where both migration
// engines operate.
type PageTable struct {
	topo       topology.Topology
	policy     Policy
	seed       uint64
	counterMax uint32

	home   []int32  // -1 = unmapped
	gen    []uint32 // bumped on every migration (TLB shootdown)
	frozen []uint32 // 1 = UPMlib froze the page (ping-pong damping)
	prev   []int32  // previous home, for ping-pong detection

	// counters[vpn*nodes+node]: accesses (L2 misses) from each node.
	counters []uint32

	// Replication state (see replicate.go): per-page replica bitmasks,
	// the page-level write log, and event counters.
	repl        []uint32
	written     []uint32
	trackWrites bool
	replicas    atomic.Int64
	collapses   atomic.Int64

	// used[node] counts resident pages; capacity is the per-node limit
	// (0 = unlimited). Migrations respect it with best-effort
	// forwarding; initial placement respects it for first-touch only in
	// the sense that a full node overflows to the closest one.
	used     []int64
	capacity int64

	faults     atomic.Int64
	migrations atomic.Int64
}

// Config configures a page table.
type Config struct {
	Pages         int    // size of the arena in pages
	Policy        Policy // initial placement scheme
	Seed          uint64 // seed for Random placement
	CounterBits   int    // hardware counter width; 0 means 11 (Origin2000)
	CapacityPages int64  // per-node page capacity; 0 = unlimited
}

// New builds a page table over topo with the given configuration.
func New(topo topology.Topology, cfg Config) (*PageTable, error) {
	if cfg.Pages <= 0 {
		return nil, fmt.Errorf("vm: page count %d invalid", cfg.Pages)
	}
	bits := cfg.CounterBits
	if bits == 0 {
		bits = 11
	}
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("vm: counter width %d invalid", bits)
	}
	n := topo.Nodes()
	pt := &PageTable{
		topo:       topo,
		policy:     cfg.Policy,
		seed:       cfg.Seed,
		counterMax: uint32(1<<bits - 1),
		home:       make([]int32, cfg.Pages),
		gen:        make([]uint32, cfg.Pages),
		frozen:     make([]uint32, cfg.Pages),
		prev:       make([]int32, cfg.Pages),
		counters:   make([]uint32, cfg.Pages*n),
		used:       make([]int64, n),
		capacity:   cfg.CapacityPages,
	}
	for i := range pt.home {
		pt.home[i] = -1
		pt.prev[i] = -1
	}
	return pt, nil
}

// Clone returns a deep copy of the page table — homes, generations,
// freeze bits, ping-pong history, reference counters, replica masks, the
// write log, capacity tallies and event counters — sharing only the
// immutable topology. The copy must be taken at a quiescent point (no
// concurrent Resolve/CountMiss in flight); machine.Machine.Clone
// documents the full snapshot contract.
func (pt *PageTable) Clone() *PageTable {
	n := &PageTable{
		topo:        pt.topo,
		policy:      pt.policy,
		seed:        pt.seed,
		counterMax:  pt.counterMax,
		home:        append([]int32(nil), pt.home...),
		gen:         append([]uint32(nil), pt.gen...),
		frozen:      append([]uint32(nil), pt.frozen...),
		prev:        append([]int32(nil), pt.prev...),
		counters:    append([]uint32(nil), pt.counters...),
		trackWrites: pt.trackWrites,
		used:        append([]int64(nil), pt.used...),
		capacity:    pt.capacity,
	}
	// repl and written are lazily allocated; preserve nil-ness so the
	// clone takes the same allocation paths as the original.
	if pt.repl != nil {
		n.repl = append([]uint32(nil), pt.repl...)
	}
	if pt.written != nil {
		n.written = append([]uint32(nil), pt.written...)
	}
	n.replicas.Store(pt.replicas.Load())
	n.collapses.Store(pt.collapses.Load())
	n.faults.Store(pt.faults.Load())
	n.migrations.Store(pt.migrations.Load())
	return n
}

// Pages returns the arena size in pages.
func (pt *PageTable) Pages() int { return len(pt.home) }

// Nodes returns the node count.
func (pt *PageTable) Nodes() int { return pt.topo.Nodes() }

// CounterMax returns the saturation value of the reference counters.
func (pt *PageTable) CounterMax() uint32 { return pt.counterMax }

// Policy returns the initial placement policy.
func (pt *PageTable) Policy() Policy { return pt.policy }

// splitmix64 hashes x; used for deterministic Random placement so the
// placement of a page does not depend on which CPU faults it first.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// placeFor returns the policy's preferred node for vpn when faulted from
// accessor's node.
func (pt *PageTable) placeFor(vpn uint64, accessor int) int {
	switch pt.policy {
	case FirstTouch:
		return accessor
	case RoundRobin:
		return int(vpn) % pt.topo.Nodes()
	case Random:
		return int(splitmix64(vpn^pt.seed) % uint64(pt.topo.Nodes()))
	case WorstCase:
		return 0
	}
	return accessor
}

// Resolve returns the home node and generation for vpn, faulting the page
// in (placement policy + capacity overflow) if this is its first access
// from any processor. faulted reports whether this call performed the
// fault, so the caller can charge the fault cost.
func (pt *PageTable) Resolve(vpn uint64, accessorNode int) (home int, gen uint32, faulted bool) {
	if h := pt.home[vpn]; h >= 0 {
		return int(h), pt.gen[vpn], false
	}
	target := pt.admit(pt.placeFor(vpn, accessorNode))
	pt.home[vpn] = int32(target)
	pt.faults.Add(1)
	return target, pt.gen[vpn], true
}

// admit charges one page of capacity on the target node, overflowing to
// the closest node with room when the target is full. It returns the node
// actually used.
func (pt *PageTable) admit(target int) int {
	if pt.capacity <= 0 {
		atomic.AddInt64(&pt.used[target], 1)
		return target
	}
	for _, n := range pt.topo.ByDistance(target) {
		if atomic.AddInt64(&pt.used[n], 1) <= pt.capacity {
			return n
		}
		atomic.AddInt64(&pt.used[n], -1)
	}
	// Everything full: best effort keeps the page on the target anyway.
	atomic.AddInt64(&pt.used[target], 1)
	return target
}

// Home returns the current home node of vpn, or -1 if unmapped.
func (pt *PageTable) Home(vpn uint64) int { return int(atomic.LoadInt32(&pt.home[vpn])) }

// Gen returns the current translation generation of vpn.
func (pt *PageTable) Gen(vpn uint64) uint32 { return atomic.LoadUint32(&pt.gen[vpn]) }

// CountMiss records one memory access (an L2 miss) to vpn from the given
// node in the hardware counters, saturating at the counter width.
func (pt *PageTable) CountMiss(vpn uint64, node int) {
	if p := &pt.counters[int(vpn)*pt.topo.Nodes()+node]; *p < pt.counterMax {
		*p++
	}
}

// CountMissN records n memory accesses to vpn from node in one saturating
// update, leaving the counter exactly where n CountMiss calls would: the
// bulk-access path of internal/machine batches every miss a run takes on
// one page into a single call.
func (pt *PageTable) CountMissN(vpn uint64, node int, n uint32) {
	if n == 0 {
		return
	}
	p := &pt.counters[int(vpn)*pt.topo.Nodes()+node]
	if old := *p; old < pt.counterMax {
		next := old + n
		if next > pt.counterMax || next < old {
			next = pt.counterMax
		}
		*p = next
	}
}

// Counters copies the reference-counter row of vpn into dst (len >= nodes)
// and returns it. Values are already saturated.
func (pt *PageTable) Counters(vpn uint64, dst []uint32) []uint32 {
	n := pt.topo.Nodes()
	if dst == nil {
		dst = make([]uint32, n)
	}
	base := int(vpn) * n
	for i := 0; i < n; i++ {
		dst[i] = atomic.LoadUint32(&pt.counters[base+i])
	}
	return dst[:n]
}

// ResetCounters zeroes the counter row of vpn.
func (pt *PageTable) ResetCounters(vpn uint64) {
	base := int(vpn) * pt.topo.Nodes()
	for i := 0; i < pt.topo.Nodes(); i++ {
		atomic.StoreUint32(&pt.counters[base+i], 0)
	}
}

// DecayCounters halves the counter row of vpn (the aging step kernel
// engines apply so that stale history does not pin migration decisions,
// and so saturated counters become informative again).
func (pt *PageTable) DecayCounters(vpn uint64) {
	base := int(vpn) * pt.topo.Nodes()
	for i := 0; i < pt.topo.Nodes(); i++ {
		p := &pt.counters[base+i]
		atomic.StoreUint32(p, atomic.LoadUint32(p)/2)
	}
}

// ResetAllCounters zeroes every counter.
func (pt *PageTable) ResetAllCounters() {
	for i := range pt.counters {
		atomic.StoreUint32(&pt.counters[i], 0)
	}
}

// MigrateResult describes the outcome of a migration request.
type MigrateResult struct {
	Moved bool // page changed node
	From  int  // node the page was on when the request ran
	Dest  int  // node the page ended on (forwarding may divert it)
}

// Migrate moves vpn to the requested node, subject to the capacity
// constraint: a full target forwards the page to the closest node with
// room (the IRIX best-effort strategy). Moving a page bumps its generation
// so stale TLB entries miss, and records ping-pong history for Freeze
// decisions. Migrate must run at a quiescent point.
func (pt *PageTable) Migrate(vpn uint64, to int) MigrateResult {
	cur := int(atomic.LoadInt32(&pt.home[vpn]))
	if cur < 0 || to == cur {
		return MigrateResult{Moved: false, From: cur, Dest: cur}
	}
	if atomic.LoadUint32(&pt.frozen[vpn]) != 0 {
		return MigrateResult{Moved: false, From: cur, Dest: cur}
	}
	// The move frees the source node first; best-effort forwarding may
	// then land the page back on the source, which is a no-op.
	atomic.AddInt64(&pt.used[cur], -1)
	dest := pt.admit(to)
	if dest == cur {
		return MigrateResult{Moved: false, From: cur, Dest: cur}
	}
	pt.prev[vpn] = int32(cur)
	atomic.StoreInt32(&pt.home[vpn], int32(dest))
	atomic.AddUint32(&pt.gen[vpn], 1)
	pt.migrations.Add(1)
	return MigrateResult{Moved: true, From: cur, Dest: dest}
}

// PrevHome returns the node the page lived on before its last migration,
// or -1 if it never moved.
func (pt *PageTable) PrevHome(vpn uint64) int { return int(pt.prev[vpn]) }

// Freeze pins vpn: subsequent Migrate calls refuse to move it. UPMlib
// freezes pages that bounce between two nodes in consecutive iterations.
func (pt *PageTable) Freeze(vpn uint64) { atomic.StoreUint32(&pt.frozen[vpn], 1) }

// Unfreeze releases a frozen page.
func (pt *PageTable) Unfreeze(vpn uint64) { atomic.StoreUint32(&pt.frozen[vpn], 0) }

// Frozen reports whether vpn is frozen.
func (pt *PageTable) Frozen(vpn uint64) bool { return atomic.LoadUint32(&pt.frozen[vpn]) != 0 }

// Faults returns the number of page faults taken so far.
func (pt *PageTable) Faults() int64 { return pt.faults.Load() }

// Migrations returns the number of successful page moves so far.
func (pt *PageTable) Migrations() int64 { return pt.migrations.Load() }

// FastForwardCounters advances the page table's monotone event counters
// without simulating the events behind them: the steady-state
// fast-forward engine adds k-iteration multiples of the per-iteration
// deltas it proved constant. Homes, generations, freeze bits and the
// reference-counter rows are left exactly as they are — at a steady
// iteration boundary they are on a period-one orbit, so their current
// values are also their values after any number of further iterations.
func (pt *PageTable) FastForwardCounters(dFaults, dMigrations, dReplicas, dCollapses int64) {
	pt.faults.Add(dFaults)
	pt.migrations.Add(dMigrations)
	pt.replicas.Add(dReplicas)
	pt.collapses.Add(dCollapses)
}

// StateHash returns an FNV-1a digest of the migration-relevant page-table
// state over the first npages pages: every page's home node and, when
// withCounters is set, its reference-counter row. The steady-state
// detector folds it into the per-iteration fingerprint — equal hashes at
// consecutive iteration boundaries mean the state a migration engine
// bases future decisions on is stationary, which is what licenses
// extrapolating "no further migrations" to the remaining iterations.
// Counter rows are included only when an attached engine still reads them
// (the kernel engine's competitive scan); under an inactive or absent
// engine the rows grow monotonically and would never repeat.
func (pt *PageTable) StateHash(npages uint64, withCounters bool) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := pt.topo.Nodes()
	for vpn := uint64(0); vpn < npages; vpn++ {
		h ^= uint64(uint32(atomic.LoadInt32(&pt.home[vpn])))
		h *= prime64
		if withCounters {
			base := int(vpn) * n
			for i := 0; i < n; i++ {
				h ^= uint64(atomic.LoadUint32(&pt.counters[base+i]))
				h *= prime64
			}
		}
	}
	return h
}

// Used returns the number of pages resident on each node.
func (pt *PageTable) Used() []int64 {
	out := make([]int64, len(pt.used))
	for i := range out {
		out[i] = atomic.LoadInt64(&pt.used[i])
	}
	return out
}

// HomeHistogram returns how many mapped pages live on each node; the
// placement tests use it to check balance properties.
func (pt *PageTable) HomeHistogram() []int {
	h := make([]int, pt.topo.Nodes())
	for vpn := range pt.home {
		if n := atomic.LoadInt32(&pt.home[vpn]); n >= 0 {
			h[n]++
		}
	}
	return h
}
