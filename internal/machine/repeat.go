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
// directory's writer and shared bits, and each log's last page (the
// base of its next Δvpn). Repeat compares that state at the end of
// every kernel call with its value up to maxRepeatPeriod calls earlier;
// once it provably repeats, the rest of the log is copied from the last
// period instead of simulated.

// maxRepeatPeriod is the longest period Repeat looks for.
const maxRepeatPeriod = 8

// minRepeatSteps is the shortest span of calls condition (b) compares:
// a window of at least 2p and at least this many calls. A kernel that
// breaks the Kernel contract by charging extra every q-th call, q up to
// minRepeatSteps, then cannot pass (b) with a period q does not divide.
const minRepeatSteps = 4

// callMark is the recorder's position at the end of one kernel call.
type callMark struct {
	pos   []int        // every CPU log's length
	ops   int          // len(Ops)
	hash  uint64       // of the call's cache-side state; 0 at a history's first mark
	state *repeatState // nil once no later call can be compared with it
}

// repeatState is the canonical cache-side state at a callMark.
type repeatState struct {
	words []uint64 // every CPU's cache state words, then each log's last vpn
	dir   []uint32 // directory words over the heap (versions kept for the wrap bound)
	ahead bool     // a cached line's version exceeds its unit's
}

// Repeat ends one kernel call for repeat detection; call it right after
// Mark(OpReturn). restart starts a new history at this call, so later
// calls are compared only with calls after it: the driver restarts at
// the end of the untimed cold start, and where it rebinds the team.
// remaining is the number of kernel calls still to come.
//
// Repeat fires for the smallest period p ≤ maxRepeatPeriod for which,
// inside the history,
//
//   - (a) the cache-side state now equals the state p calls ago: equal
//     cache tags in recency order, each resident line valid (its version
//     equals its unit's) or stale alike, equal writer and shared bits of
//     every directory word over the heap, and equal last vpns. A hash
//     picks the candidates; the decision is a full comparison;
//   - (b) over the last max(2p, minRepeatSteps) calls, each call
//     appended the same log bytes and Ops as the call p before it,
//     which catches kernels whose charges depend on the call index
//     rather than on machine state;
//   - and versions keep growing: no cached line is ahead of its unit's
//     version, and no unit's version can outgrow its 23-bit field in
//     the remaining calls, each gaining per period what it gained in
//     the last.
//
// On firing it appends copies of the last p calls' records, cyclically,
// for the remaining calls, detaches the recorder from its machine and
// returns p: by determinism the log is byte-identical to one recorded by
// simulating those calls. It returns 0 when it does not fire, and always
// once the recorder has declined or been detached.
func (r *Recorder) Repeat(restart bool, remaining int) int {
	if r.declined != "" || r.m.rec != r {
		return 0
	}
	if r.m.l1Shift > r.m.cohShift {
		// An L1 line would span several units, and one valid bit could
		// not say against which of them it is valid.
		r.blocked = "L1 lines wider than a coherence unit"
		return 0
	}
	if restart || len(r.marks) == 0 {
		r.marks = append(r.marks[:0], r.mark())
		return 0
	}
	if remaining <= 0 {
		return 0
	}
	r.marks = append(r.marks, r.mark())
	j := len(r.marks) - 1
	// A state is built only where it can serve: some call from this one
	// on can still fire, and this call's records echo one of the calls
	// before it, as (b) requires of every call it compares.
	if j+remaining-1 >= minRepeatSteps && r.echoes(j) {
		st := r.state()
		h := st.hash()
		r.marks[j].state, r.marks[j].hash = st, h
		for p := 1; p <= maxRepeatPeriod && j-max(2*p, minRepeatSteps) >= 0; p++ {
			if old := r.marks[j-p]; old.state != nil && old.hash == h &&
				r.repeats(j, p) && r.versionsFit(j, p, remaining) {
				r.materialise(j, p, remaining)
				return p
			}
		}
	}
	r.trim()
	return 0
}

// sameCalls reports whether the n calls ending at mark i appended the
// same log bytes and Ops as the n calls ending at mark k.
func (r *Recorder) sameCalls(i, k, n int) bool {
	a0, a1, b0, b1 := r.marks[i-n], r.marks[i], r.marks[k-n], r.marks[k]
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

// echoes reports whether call j appended what one of the
// maxRepeatPeriod calls before it did.
func (r *Recorder) echoes(j int) bool {
	for q := 1; q <= maxRepeatPeriod && j-q >= 1; q++ {
		if r.sameCalls(j, j-q, 1) {
			return true
		}
	}
	return false
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

// trim keeps what later calls can compare with: 2·maxRepeatPeriod+1
// positions, and the states of the newest call and of the calls whose
// hash matched one at least two calls before them, the candidates for a
// period above one. (A cycle of period p that starts later is found p
// calls later.) A dropped state's buffers are reused for the next one.
func (r *Recorder) trim() {
	j := len(r.marks) - 1
	drop := func(i int) {
		if i >= 0 && r.marks[i].state != nil {
			r.spare, r.marks[i].state = r.marks[i].state, nil
		}
	}
	drop(j - maxRepeatPeriod)
	if prev := j - 1; prev >= 0 {
		candidate := false
		for k := max(prev-maxRepeatPeriod, 0); k <= prev-2; k++ {
			candidate = candidate || r.marks[k].hash == r.marks[prev].hash
		}
		if !candidate {
			drop(prev)
		}
	}
	if len(r.marks) > 2*maxRepeatPeriod+1 {
		r.marks = append(r.marks[:0], r.marks[1:]...)
	}
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
	if n := len(m.cpus)*(len(t1)+len(t2)) + len(r.logs); cap(st.words) < n {
		st.words = make([]uint64, 0, n)
	}
	w := st.words[:0]
	for _, c := range m.cpus {
		w = appendCache(w, c.l1, m.l1Shift)
		w = appendCache(w, c.l2, m.cohShift)
	}
	for i := range r.logs {
		w = append(w, r.logs[i].vpn)
	}
	st.words = w
	st.dir = append(st.dir[:0], dir[:m.heap>>m.cohShift]...)
	return st
}

// hash is FNV-1a over the state's words and the writer and shared bits
// of its directory words: what (a) compares.
func (st *repeatState) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range st.words {
		h = (h ^ v) * 1099511628211
	}
	for _, v := range st.dir {
		h = (h ^ uint64(v&0x1ff)) * 1099511628211
	}
	return h
}

// repeats reports whether conditions (a) and (b) hold at mark j for
// period p.
func (r *Recorder) repeats(j, p int) bool {
	a, b := r.marks[j].state, r.marks[j-p].state
	// The window of the last max(2p, minRepeatSteps) calls is
	// p-periodic when its calls after the first p equal its calls
	// before the last p.
	return r.sameCalls(j, j-p, max(2*p, minRepeatSteps)-p) && a.equal(b)
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

// versionsFit reports whether versions keep growing: no cached line is
// ahead of its unit, so none wrapped so far, and every unit's version
// stays inside its field over the remaining calls, when each period
// adds to it what the last one did. Valid-or-stale stands in for a
// version only while versions grow; a wrapped one could make a stale
// copy valid again.
func (r *Recorder) versionsFit(j, p, remaining int) bool {
	if r.marks[j].state.ahead {
		r.blocked = "directory versions wrapped"
		return false
	}
	a, b := r.marks[j].state.dir, r.marks[j-p].state.dir
	cycles := uint64((remaining + p - 1) / p)
	for i, w := range a {
		v, dv := uint64(w>>9), uint64(w>>9-b[i]>>9)
		if v+dv*cycles >= versionLimit {
			r.blocked = "directory versions would wrap"
			return false
		}
	}
	return true
}

// materialise appends the records of the remaining calls, copied
// cyclically from the last p, and stops recording.
func (r *Recorder) materialise(j, p, remaining int) {
	from, to := r.marks[j-p], r.marks[j]
	full, part := remaining/p, remaining%p
	cut := r.marks[j-p+part]
	for c := range r.logs {
		l := &r.logs[c]
		block := l.buf[from.pos[c]:to.pos[c]]
		buf := slices.Grow(l.buf, full*len(block)+cut.pos[c]-from.pos[c])
		for range full {
			buf = append(buf, block...)
		}
		l.buf = append(buf, block[:cut.pos[c]-from.pos[c]]...)
	}
	block := r.ops[from.ops:to.ops]
	ops := slices.Grow(r.ops, full*len(block)+cut.ops-from.ops)
	for range full {
		ops = append(ops, block...)
	}
	r.ops = append(ops, block[:cut.ops-from.ops]...)
	r.marks, r.spare = nil, nil
	r.m.rec = nil
}
