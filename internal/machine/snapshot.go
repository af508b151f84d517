package machine

import "slices"

// Machine snapshot/fork support. A sweep's cells share an identical
// engine-independent prefix (allocation, initialisation, the cold-start
// first-touch iteration); cloning the machine at that point lets every
// engine variant resume from one simulated prefix instead of repeating
// it (see internal/nas's Prefix/RunFromSnapshot and DESIGN.md §10).

// Clone returns a deep copy of the machine at its current state: page
// table, per-CPU caches, TLBs, clocks, per-node tallies, statistics,
// coherence directory and heap cursor. Only immutable state — the
// topology, the latency table's hop ladder and the CPUs' latency rows —
// is shared.
//
// Two things deliberately do not survive a clone:
//
//   - barrier hooks: they are closures over engine state bound to the
//     parent, so the clone starts hook-free and engines re-attach to the
//     copy they drive (a disabled engine's hook is a no-op, so a
//     hook-free prefix is equivalent to one carrying disabled hooks);
//   - the tracer and the stream recorder: both are per-run observers.
//
// Cloning must happen at a quiescent point (all CPUs settled, no team
// mid-region, no concurrent accesses). At such a point a forked run is
// bit-identical to continuing the parent — the snapshot invariant the
// fork-vs-scratch tests in internal/nas prove. The parent is not
// mutated; concurrent Clone calls on the same parent are safe provided
// nothing is simulating on it.
func (m *Machine) Clone() *Machine {
	c := &Machine{
		Cfg:       m.Cfg,
		Topo:      m.Topo,
		PT:        m.PT.Clone(),
		Lat:       m.Lat,
		pageShift: m.pageShift,
		heap:      m.heap,
		cohShift:  m.cohShift,
		lineState: append([]uint32(nil), m.lineState...),
		noDir:     m.noDir,
		l1Shift:   m.l1Shift,
		bulkOK:    m.bulkOK,
		settleAcc: make([]int64, len(m.settleAcc)),
		settlePer: make([]int64, len(m.settlePer)),
		// refCounting carries over; freeRun deliberately does not — a
		// clone is taken at a quiescent point and starts simulating.
		refCounting: m.refCounting,
	}
	c.cpus = make([]*CPU, len(m.cpus))
	for i, src := range m.cpus {
		c.cpus[i] = &CPU{
			ID:      src.ID,
			NodeID:  src.NodeID,
			m:       c,
			clock:   src.clock,
			mem:     src.mem,
			nodeAcc: append([]int64(nil), src.nodeAcc...),
			accList: slices.Clone(src.accList),
			stat:    src.stat,
		}
		if src.l1 != nil { // not before the first Alloc, nor after a drop
			c.cpus[i].l1, c.cpus[i].l2, c.cpus[i].tlb = src.l1.Clone(), src.l2.Clone(), src.tlb.Clone()
		}
	}
	return c
}

// RewindHeap resets the allocation cursor to the bottom of the arena
// without touching any other state. A forked run uses it to rebuild its
// kernel: kernel constructors allocate deterministically, so replaying
// the same build sequence on a rewound clone reproduces the parent's
// exact addresses while binding the rebuilt host-side arrays to the
// clone. Callers should assert AllocatedPages afterwards matches the
// parent's.
func (m *Machine) RewindHeap() { m.heap = 0 }
