package vm

import (
	"fmt"
	"math/bits"
)

// Read-only page replication. The paper notes that "read-only pages can be
// replicated in multiple nodes" — the classic companion of page migration
// on the pre-ccNUMA machines it cites — but UPMlib as published only
// migrates. This file supplies the mechanism as an extension: a page may
// have read copies on several nodes; reads are served by the closest copy;
// a write collapses every replica (write-invalidate at page granularity,
// with the usual generation bump standing in for the TLB shootdown).
//
// The replica set is a per-page node bitmask, so replication supports up
// to 32 nodes; the machines in this repository have at most 8.

// MaxReplicationNodes is the largest machine (in nodes) that supports
// replication.
const MaxReplicationNodes = 32

// SetWriteTracking enables or disables the page-level write log that
// replication policies use to find read-only pages. Resetting the log is
// the caller's job (ResetWritten).
func (pt *PageTable) SetWriteTracking(on bool) {
	if on && pt.topo.Nodes() > MaxReplicationNodes {
		panic(fmt.Sprintf("vm: write tracking/replication supports at most %d nodes, machine has %d",
			MaxReplicationNodes, pt.topo.Nodes()))
	}
	if on && pt.written == nil {
		pt.written = make([]uint32, len(pt.home))
	}
	pt.trackWrites = on
}

// WriteTracking reports whether the write log is active.
func (pt *PageTable) WriteTracking() bool { return pt.trackWrites }

// MarkWritten records a write to vpn (called by the machine on stores when
// tracking is on). It also collapses any replicas, returning the number of
// copies dropped so the caller can charge the invalidation.
func (pt *PageTable) MarkWritten(vpn uint64) (dropped int) {
	if pt.written != nil {
		pt.written[vpn] = 1
	}
	if pt.repl != nil && pt.repl[vpn] != 0 {
		return pt.CollapseReplicas(vpn)
	}
	return 0
}

// Written reports whether vpn has been written since the last reset.
func (pt *PageTable) Written(vpn uint64) bool {
	return pt.written != nil && pt.written[vpn] != 0
}

// ResetWritten clears the write log.
func (pt *PageTable) ResetWritten() { clear(pt.written) }

// Replicate adds a read copy of vpn on node, charging one page of node
// capacity (with the same best-effort forwarding as migrations — a full
// node simply fails the replication). It reports whether a copy was
// created. Replicating onto the home node is a no-op.
func (pt *PageTable) Replicate(vpn uint64, node int) bool {
	if pt.topo.Nodes() > MaxReplicationNodes {
		panic("vm: replication unsupported on machines this large")
	}
	home := int(pt.home[vpn])
	if home < 0 || node == home {
		return false
	}
	if pt.repl == nil {
		pt.repl = make([]uint32, len(pt.home))
	}
	bit := uint32(1) << uint(node)
	if pt.repl[vpn]&bit != 0 {
		return false // already replicated there
	}
	if pt.capacity > 0 && pt.used[node] >= pt.capacity {
		return false
	}
	pt.used[node]++
	pt.repl[vpn] |= bit
	pt.replicas++
	return true
}

// Replicas returns the replica bitmask of vpn (home not included).
func (pt *PageTable) Replicas(vpn uint64) uint32 {
	if pt.repl == nil {
		return 0
	}
	return pt.repl[vpn]
}

// HasReplicas reports whether vpn has any read copies.
func (pt *PageTable) HasReplicas(vpn uint64) bool { return pt.Replicas(vpn) != 0 }

// NearestCopy returns the node closest to from that holds vpn — the home
// or any replica.
func (pt *PageTable) NearestCopy(vpn uint64, from int) int {
	home := int(pt.home[vpn])
	mask := pt.Replicas(vpn)
	if mask == 0 || home < 0 {
		return home
	}
	best, bestHops := home, pt.topo.Hops(from, home)
	for m := mask; m != 0; m &= m - 1 {
		n := bits.TrailingZeros32(m)
		if h := pt.topo.Hops(from, n); h < bestHops {
			best, bestHops = n, h
		}
	}
	return best
}

// CollapseReplicas drops every read copy of vpn (a write-invalidate),
// bumps the page generation so stale read mappings miss, and returns the
// number of copies dropped.
func (pt *PageTable) CollapseReplicas(vpn uint64) int {
	if pt.repl == nil {
		return 0
	}
	mask := pt.repl[vpn]
	if mask == 0 {
		return 0
	}
	pt.repl[vpn] = 0
	for m := mask; m != 0; m &= m - 1 {
		pt.used[bits.TrailingZeros32(m)]--
	}
	pt.gen[vpn]++
	pt.collapses++
	return bits.OnesCount32(mask)
}

// Collapses returns the number of write-invalidation events.
func (pt *PageTable) Collapses() int64 { return pt.collapses }
