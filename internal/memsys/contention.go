package memsys

// Contention models each memory node as a single server with fixed
// per-access occupancy (Latency.MemService). It is evaluated in bulk at
// every barrier over the accesses of the just-finished region, which keeps
// the simulation deterministic under real goroutine parallelism:
//
//   - below saturation, every access to node n pays an M/D/1-style queueing
//     delay that grows with the node's utilisation during the region;
//   - a saturated node bounds the region's wall-clock time from below by
//     its total busy time (the "floor"), which is what makes the paper's
//     worst-case placement collapse: all processors contend for the memory
//     of one node.
//
// The model intentionally ignores network-link contention; the paper
// attributes the worst-case pain to memory-module contention, which is
// captured here.

// ContentionDelays computes, for each node, the extra delay charged to
// every access to that node, given the per-node access counts of a region,
// the uncontended region duration t0 (picoseconds), and the per-access
// service occupancy, and writes it to perAccess, which must be at least
// as long as accesses. It also returns the largest per-node busy time,
// which callers use as a lower bound ("floor") on the region's wall-clock
// span.
func ContentionDelays(perAccess, accesses []int64, t0, service int64) (busyFloor int64) {
	if t0 < 1 {
		t0 = 1
	}
	for n, a := range accesses {
		perAccess[n] = 0
		if a <= 0 {
			continue
		}
		busy := a * service
		if busy > busyFloor {
			busyFloor = busy
		}
		// Utilisation in parts per 1024 to stay in integers.
		u := busy * 1024 / t0
		switch {
		case u <= 512: // below 50% utilisation: negligible queueing
			continue
		case u >= 973: // >= ~95%: cap the queueing term; the floor takes over
			perAccess[n] = service * 19 / 2
		default:
			// M/D/1 waiting time: Wq = service * u / (2*(1-u)).
			perAccess[n] = service * u / (2 * (1024 - u))
		}
	}
	return busyFloor
}
