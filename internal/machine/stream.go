package machine

import (
	"encoding/binary"
	"fmt"
)

// L2-miss stream recording and replay (DESIGN.md §17).
//
// Placement and migration enter a CPU's clock only behind an L2 miss, in
// memory. Everything in front of it — the caches, the coherence directory
// and the kernel numerics — is indexed by virtual address and runs in
// thread-id order, so it does the same work under every placement and
// engine. A Recorder attached to a machine logs that placement-free part
// once: every memory call with the CPU's placement-free clock advance
// since its previous log point, each CPU's access and L1-miss counts at
// its sync points, each CPU's cache hit, miss and tick counts at every
// kernel-call boundary, and the structure (regions, barriers, serial
// sections, phase and kernel-call boundaries) the omp and nas layers
// report. A Stream replays the log against a fresh machine whose page
// table, TLBs, counters, contention model and engines are live, without
// touching a cache.

// OpKind classifies one structural step of a recorded run.
type OpKind uint8

const (
	// OpRegion is a parallel region (Op.Name is its label). Each member
	// replays its CPU's log, taking a barrier at every barrier record,
	// until the record that ends its share of the region.
	OpRegion OpKind = iota
	// OpSerial is serial-section work on CPU Op.CPU between regions.
	OpSerial
	// OpPhaseEnter and OpPhaseExit are the kernel's marked-phase hook
	// calls, made on CPU Op.CPU.
	OpPhaseEnter
	OpPhaseExit
	// OpReturn ends one kernel call (InitTouch or Step). Every CPU's log
	// holds a cache record for it.
	OpReturn
)

// Op is one structural step of a recorded run, in host execution order.
type Op struct {
	Kind OpKind
	CPU  int
	Name string
}

// Record kinds of a per-CPU log: the low two bits of each record's tag.
const (
	recMiss    = 0 // tag = (n<<1|write)<<2; then zigzag Δvpn, advance
	recBarrier = 1 // then advance, Δaccesses, ΔL1 misses
	recEnd     = 2 // as recBarrier
	recCaches  = 3 // then ΔL1 hits, misses, tick, ΔL2 hits, misses, tick
)

// Recorder logs the placement-independent part of a run; see the
// section comment above. Attach it with Machine.SetRecorder before the
// first simulated access. The omp runtime and the nas driver report the
// run's structure through Fork, Arrive, End, Join and Mark; constructs
// the replay cannot reproduce call Decline instead, after which the
// recorder stops logging.
type Recorder struct {
	m        *Machine
	logs     []cpuLog
	ops      []Op
	inRegion bool
	serial   int // CPU with unflushed serial-section misses, or -1
	declined string
}

// cpuLog is one CPU's log and its baseline: the state at its previous
// log point.
type cpuLog struct {
	buf     []byte
	vpn     uint64    // page of the previous miss record
	clock   int64     // clock at the previous log point
	acc, l1 uint64    // Accesses and L1Miss at the previous sync record
	caches  [6]uint64 // cache counts at the previous OpReturn
	dirty   bool      // miss records since the previous sync record
}

// NewRecorder returns a recorder for m's CPUs. The CPUs' current
// clocks and counts are the baseline.
func NewRecorder(m *Machine) *Recorder {
	r := &Recorder{m: m, logs: make([]cpuLog, len(m.cpus)), serial: -1}
	for i, c := range m.cpus {
		r.logs[i] = cpuLog{clock: c.clock, acc: c.stat.Accesses, l1: c.stat.L1Miss, caches: c.cacheCounts()}
	}
	return r
}

// SetRecorder attaches a stream recorder; nil detaches it.
func (m *Machine) SetRecorder(r *Recorder) { m.rec = r }

// Recorder returns the attached recorder, or nil. It is nil once the
// recorder has declined, so callers stop reporting to it.
func (m *Machine) Recorder() *Recorder {
	if m.rec == nil || m.rec.declined != "" {
		return nil
	}
	return m.rec
}

// Decline abandons the recording: the run reached a construct whose
// timing the replay cannot reproduce. The first reason is kept.
func (r *Recorder) Decline(reason string) {
	if r.declined == "" {
		r.declined = reason
		r.logs, r.ops = nil, nil
	}
}

// Declined returns the reason the recording was abandoned, or "".
func (r *Recorder) Declined() string { return r.declined }

// pending reports whether c has work since its previous log point that
// no record holds yet.
func (r *Recorder) pending(c *CPU) bool {
	l := &r.logs[c.ID]
	return l.dirty || c.clock != l.clock || c.stat.Accesses != l.acc || c.stat.L1Miss != l.l1
}

// miss logs one memory call by c.
func (r *Recorder) miss(c *CPU, vpn uint64, write bool, n int) {
	if r.declined != "" {
		return
	}
	if !r.inRegion && r.serial != c.ID {
		// Serial misses on a second CPU: close the first CPU's section
		// so the replay keeps their order.
		if r.serial >= 0 {
			r.flush(r.m.cpus[r.serial])
		}
		r.serial = c.ID
	}
	l := &r.logs[c.ID]
	tag := uint64(n) << 3
	if write {
		tag |= 1 << 2
	}
	d := int64(vpn - l.vpn)
	l.buf = binary.AppendUvarint(l.buf, tag|recMiss)
	l.buf = binary.AppendUvarint(l.buf, uint64(d<<1^d>>63))
	l.buf = binary.AppendUvarint(l.buf, uint64(c.clock-l.clock))
	l.vpn, l.dirty = vpn, true
}

// rebase makes c's current clock its baseline after a clock write the
// replay performs itself (memory, SetClock, Advance, Settle). A write
// that would overwrite unrecorded work cannot be replayed.
func (r *Recorder) rebase(c *CPU) {
	if r.declined == "" {
		r.logs[c.ID].clock = c.clock
	}
}

// check declines when c has unrecorded work at a clock write.
func (r *Recorder) check(c *CPU) {
	if r.declined == "" && r.pending(c) {
		r.Decline(fmt.Sprintf("cpu %d clock written over unrecorded work", c.ID))
	}
}

// sync appends a barrier or end record for c.
func (r *Recorder) sync(c *CPU, kind uint64) {
	if r.declined != "" {
		return
	}
	l := &r.logs[c.ID]
	l.buf = binary.AppendUvarint(l.buf, kind)
	l.buf = binary.AppendUvarint(l.buf, uint64(c.clock-l.clock))
	l.buf = binary.AppendUvarint(l.buf, c.stat.Accesses-l.acc)
	l.buf = binary.AppendUvarint(l.buf, c.stat.L1Miss-l.l1)
	l.clock, l.acc, l.l1, l.dirty = c.clock, c.stat.Accesses, c.stat.L1Miss, false
}

// flush closes c's serial-section work, if it has any, as an OpSerial
// step.
func (r *Recorder) flush(c *CPU) {
	if r.pending(c) {
		r.sync(c, recEnd)
		r.ops = append(r.ops, Op{Kind: OpSerial, CPU: c.ID})
	}
}

// flushSerial closes the serial-section work of every CPU, in CPU order.
func (r *Recorder) flushSerial() {
	if r.declined != "" {
		return
	}
	for _, c := range r.m.cpus {
		r.flush(c)
	}
	r.serial = -1
}

// Fork opens a parallel region named name. Call it before the fork
// settles the master's serial section.
func (r *Recorder) Fork(name string) {
	r.flushSerial()
	r.ops = append(r.ops, Op{Kind: OpRegion, Name: name})
	r.inRegion = true
}

// Arrive logs c's arrival at a barrier of the open region.
func (r *Recorder) Arrive(c *CPU) {
	if !r.inRegion {
		r.Decline("barrier outside a parallel region")
		return
	}
	r.sync(c, recBarrier)
}

// End logs the end of c's share of the open region.
func (r *Recorder) End(c *CPU) { r.sync(c, recEnd) }

// Join closes the open region. Call it before the join settles.
func (r *Recorder) Join() { r.inRegion = false }

// Mark logs a structural step outside any region: a phase hook on c, or
// (with c nil) the end of a kernel call. Serial work done before it is
// flushed first.
func (r *Recorder) Mark(kind OpKind, c *CPU) {
	if r.inRegion {
		r.Decline("structural mark inside a parallel region")
		return
	}
	r.flushSerial()
	op := Op{Kind: kind, CPU: -1}
	if c != nil {
		op.CPU = c.ID
	}
	if kind == OpReturn {
		for i, c := range r.m.cpus {
			l := &r.logs[i]
			now := c.cacheCounts()
			l.buf = binary.AppendUvarint(l.buf, recCaches)
			for j, v := range now {
				l.buf = binary.AppendUvarint(l.buf, v-l.caches[j])
			}
			l.caches = now
		}
	}
	r.ops = append(r.ops, op)
}

// Finish returns the recorded stream, or an error naming why the
// recording was declined.
func (r *Recorder) Finish() (*Stream, error) {
	if r.declined != "" {
		return nil, fmt.Errorf("machine: stream declined: %s", r.declined)
	}
	s := &Stream{Ops: r.ops, logs: make([][]byte, len(r.logs))}
	for i := range r.logs {
		s.logs[i] = r.logs[i].buf
	}
	return s, nil
}

// Stream is a finished recording: the structural steps in host order and
// one compact log per CPU. It is immutable; any number of replays may
// read it concurrently, each through its own StreamReader.
type Stream struct {
	Ops  []Op
	logs [][]byte
}

// Bytes returns the size of the per-CPU logs.
func (s *Stream) Bytes() int {
	n := 0
	for _, l := range s.logs {
		n += len(l)
	}
	return n
}

// StreamReader is one replay's position in a Stream's per-CPU logs.
type StreamReader struct {
	s   *Stream
	pos []int
	vpn []uint64
}

// NewReader returns a reader positioned at the start of every log.
func (s *Stream) NewReader() *StreamReader {
	return &StreamReader{s: s, pos: make([]int, len(s.logs)), vpn: make([]uint64, len(s.logs))}
}

// Replay feeds CPU c its logged charges and misses up to its next sync
// record, and reports whether that record is a barrier arrival (true) or
// the end of c's share of a region or serial section (false).
func (rd *StreamReader) Replay(c *CPU) bool {
	buf, pos := rd.s.logs[c.ID], rd.pos[c.ID]
	next := func() uint64 {
		v, k := binary.Uvarint(buf[pos:])
		if k <= 0 {
			panic(fmt.Sprintf("machine: cpu %d stream corrupt at byte %d", c.ID, pos))
		}
		pos += k
		return v
	}
	defer func() { rd.pos[c.ID] = pos }()
	for {
		tag := next()
		if kind := tag & 3; kind != recMiss {
			adv := int64(next())
			acc := next()
			c.replayAdvance(adv, acc, next())
			return kind == recBarrier
		}
		z := next()
		rd.vpn[c.ID] += uint64(int64(z>>1) ^ -int64(z&1))
		c.replayAdvance(int64(next()), 0, 0)
		c.replayMiss(rd.vpn[c.ID], tag&4 != 0, int(tag>>3))
	}
}

// replayAdvance charges a logged placement-free clock advance (L1 and L2
// hits, flops) and the access and L1-miss counts that came with it.
func (c *CPU) replayAdvance(adv int64, accesses, l1Miss uint64) {
	if c.m.freeRun {
		return
	}
	c.clock += adv
	c.stat.Accesses += accesses
	c.stat.L1Miss += l1Miss
}

// replayMiss runs the memory path for n logged L2 misses to page vpn.
func (c *CPU) replayMiss(vpn uint64, write bool, n int) {
	if c.m.freeRun {
		return
	}
	c.memory(vpn, write, n)
}

// ReplayCaches feeds every CPU of m the cache hit, miss and tick counts
// logged at the end of a kernel call (OpReturn), so the counters
// AppendCounters reports match the recorded run's at every kernel-call
// boundary although the replay never touches a cache.
func (rd *StreamReader) ReplayCaches(m *Machine) {
	for _, c := range m.cpus {
		var d [7]uint64
		for j := range d {
			buf, pos := rd.s.logs[c.ID], rd.pos[c.ID]
			v, k := binary.Uvarint(buf[pos:])
			if k <= 0 || (j == 0 && v != recCaches) {
				panic(fmt.Sprintf("machine: cpu %d stream has no cache record at byte %d", c.ID, pos))
			}
			d[j], rd.pos[c.ID] = v, pos+k
		}
		if !m.freeRun {
			c.l1.FastForward(d[1], d[2], d[3], 1)
			c.l2.FastForward(d[4], d[5], d[6], 1)
		}
	}
}

// cacheCounts returns c's L1 hits, misses and tick and its L2 hits,
// misses and tick, the order of a cache record.
func (c *CPU) cacheCounts() [6]uint64 {
	h1, m1 := c.l1.Stats()
	h2, m2 := c.l2.Stats()
	return [6]uint64{h1, m1, c.l1.Tick(), h2, m2, c.l2.Tick()}
}
