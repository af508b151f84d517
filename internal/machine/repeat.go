package machine

import (
	"bytes"
	"slices"

	"upmgo/internal/memsys"
)

// Compressed recording (DESIGN.md §17). An iterative kernel's log
// repeats once its cache-side state does: what a kernel call appends to
// the logs is a function of the accesses it issues and of the state in
// front of memory — every CPU's cache tags in recency order, whether
// each cached line is still valid against the directory, the
// directory's writer and shared bits, every CPU's TLB vpns in recency
// order (the source of each miss record's residency bit), and each
// log's last page (the base of its next Δvpn). Repeat compares that
// state at the end of every kernel call with its value at the end of
// the call before; once it provably repeats, the rest of the log is
// stored as the last call repeated instead of simulated.

// minRepeatSteps is the number of calls condition (b) compares. A
// kernel that breaks the Kernel contract by charging extra every q-th
// call, q up to minRepeatSteps, then cannot pass (b).
const minRepeatSteps = 4

// callMark is the recorder's position at the end of one kernel call.
type callMark struct {
	pos []int // every CPU log's length
	ops int   // len(Ops)
}

// repeatState is the canonical cache-side state at a callMark.
type repeatState struct {
	words []uint64 // every CPU's cache state words and TLB ways, then each log's last vpn
	dir   []uint32 // directory words over the heap (versions kept for the wrap bound)
	ahead bool     // a cached line's version exceeds its unit's
}

// Repeat ends one kernel call for repeat detection; call it right after
// Mark(OpReturn). The first call a recorder sees starts its history:
// the driver makes it at the end of the untimed cold start. remaining is
// the number of kernel calls still to come.
//
// Repeat fires when
//
//   - (a) the cache-side state now equals the state at the end of the
//     call before: equal cache tags in recency order, each resident line
//     valid (its version equals its unit's) or stale alike, equal writer
//     and shared bits of every directory word over the heap, equal TLB
//     vpns in recency order, and equal last vpns;
//   - (b) the last minRepeatSteps calls appended identical log bytes
//     and Ops, which catches kernels whose charges depend on the call
//     index rather than on machine state;
//   - versions keep growing: no cached line is ahead of its unit's
//     version, and no unit's version can outgrow its 23-bit field in
//     the remaining calls, each gaining what it gained in the last;
//   - and the last call's records fit the fixed-width records the
//     replay loops over (decodeBlock).
//
// On firing it keeps the last call as the stream's block, to follow the
// head remaining times, detaches the recorder from its machine and
// returns true: by determinism the expanded log is byte-identical to
// one recorded by simulating those calls. It returns false when it does
// not fire, and always once the recorder has declined or been detached.
func (r *Recorder) Repeat(remaining int) bool {
	if r.declined != "" || r.m.rec != r || remaining <= 0 {
		return false
	}
	if r.m.l1Shift > r.m.cohShift {
		// An L1 line would span several units, and one valid bit could
		// not say against which of them it is valid.
		r.blocked = "L1 lines wider than a coherence unit"
		return false
	}
	if len(r.marks) > minRepeatSteps {
		r.marks = append(r.marks[:0], r.marks[1:]...)
	}
	r.marks = append(r.marks, r.mark())
	j := len(r.marks) - 1
	prev := r.last
	r.last = nil
	// A state is built only where it can serve: some call from this one
	// on can still fire, and this call appended what the one before it
	// did, as (b) requires of every call it compares.
	if j >= 2 && j+remaining-1 >= minRepeatSteps && r.sameCalls(j, 1) {
		r.last = r.state()
		if j == minRepeatSteps && prev != nil && r.sameCalls(j, minRepeatSteps-1) &&
			r.last.equal(prev) && r.versionsFit(prev, remaining) && r.fold(remaining) {
			return true
		}
	}
	if prev != nil {
		r.spare = prev
	}
	return false
}

// sameCalls reports whether the n calls ending at mark j appended the
// same log bytes and Ops as the n calls ending one call earlier.
func (r *Recorder) sameCalls(j, n int) bool {
	a0, a1, b0, b1 := r.marks[j-n], r.marks[j], r.marks[j-n-1], r.marks[j-1]
	if !slices.Equal(r.ops[a0.ops:a1.ops], r.ops[b0.ops:b1.ops]) {
		return false
	}
	for c := range r.logs {
		buf := r.logs[c].buf
		if !bytes.Equal(buf[a0.pos[c]:a1.pos[c]], buf[b0.pos[c]:b1.pos[c]]) {
			return false
		}
	}
	return true
}

// Blocked returns why a repeat Repeat found could not be used, or "".
func (r *Recorder) Blocked() string { return r.blocked }

// mark returns the recorder's current position.
func (r *Recorder) mark() callMark {
	pos := make([]int, len(r.logs))
	for i := range r.logs {
		pos[i] = len(r.logs[i].buf)
	}
	return callMark{pos: pos, ops: len(r.ops)}
}

// state builds the canonical cache-side state of the machine now.
func (r *Recorder) state() *repeatState {
	st := r.spare
	r.spare = nil
	if st == nil {
		st = &repeatState{}
	}
	m := r.m
	dir := m.lineState
	st.ahead = false
	// Each resident line is its tag shifted left by one, bit 0 set when
	// its version equals its unit's.
	appendCache := func(w []uint64, c *memsys.Cache, lineShift uint) []uint64 {
		tags, vers := c.Lines()
		for i, tag := range tags {
			x := tag << 1
			if tag != 0 {
				switch v := dir[((tag-1)<<lineShift)>>m.cohShift] >> 9; {
				case vers[i] == v:
					x |= 1
				case vers[i] > v:
					st.ahead = true
				}
			}
			w = append(w, x)
		}
		return w
	}
	t1, _ := m.cpus[0].l1.Lines()
	t2, _ := m.cpus[0].l2.Lines()
	if n := len(m.cpus)*(len(t1)+len(t2)+m.Cfg.TLBEntries) + len(r.logs); cap(st.words) < n {
		st.words = make([]uint64, 0, n)
	}
	w := st.words[:0]
	for _, c := range m.cpus {
		w = appendCache(w, c.l1, m.l1Shift)
		w = appendCache(w, c.l2, m.cohShift)
		w = append(w, c.tlb.Ways()...)
	}
	for i := range r.logs {
		w = append(w, r.logs[i].vpn)
	}
	st.words = w
	st.dir = append(st.dir[:0], dir[:m.heap>>m.cohShift]...)
	return st
}

// equal is condition (a): the full comparison of two states.
func (a *repeatState) equal(b *repeatState) bool {
	if len(a.dir) != len(b.dir) || !slices.Equal(a.words, b.words) {
		return false
	}
	for i, w := range a.dir {
		if (w^b.dir[i])&0x1ff != 0 {
			return false
		}
	}
	return true
}

// versionsFit reports whether versions keep growing from prev, the
// previous call's state, to the newest: no cached line is ahead of its
// unit, so none wrapped so far, and every unit's version stays inside
// its field over the remaining calls, when each call adds to it what
// the last one did. Valid-or-stale stands in for a version only while
// versions grow; a wrapped one could make a stale copy valid again.
func (r *Recorder) versionsFit(prev *repeatState, remaining int) bool {
	if r.last.ahead {
		r.blocked = "directory versions wrapped"
		return false
	}
	for i, w := range r.last.dir {
		v, dv := uint64(w>>9), uint64(w>>9-prev.dir[i]>>9)
		if v+dv*uint64(remaining) >= versionLimit {
			r.blocked = "directory versions would wrap"
			return false
		}
	}
	return true
}

// fold keeps the last call as the stream's block, to follow the head
// remaining times, and stops recording. The block is decoded once here
// into fixed-width records; when one of its values does not fit its
// field, fold sets r.blocked and returns false, and the recording goes
// on simulating.
func (r *Recorder) fold(remaining int) bool {
	from, to := r.marks[len(r.marks)-2], r.marks[len(r.marks)-1]
	b := loop{ops: r.ops[from.ops:to.ops:to.ops], logs: make([][]byte, len(r.logs)), repeat: remaining}
	for c := range r.logs {
		b.logs[c] = r.logs[c].buf[from.pos[c]:to.pos[c]:to.pos[c]]
	}
	var why string
	if b.recs, why = decodeBlock(b.logs, r.logs); why != "" {
		r.blocked = why
		return false
	}
	r.loop = b
	r.marks, r.last, r.spare = nil, nil, nil
	r.m.rec = nil
	return true
}
