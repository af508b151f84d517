package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// its sync points, and the structure (regions, barriers, serial
// sections, phase and kernel-call boundaries) the omp and nas layers
// report. Each miss record also holds whether the page was resident in
// the CPU's TLB: a lookup moves its vpn to the front whether it hits or
// misses, so residency is placement-free too. A Stream replays the log
// against a fresh machine whose page table, counters, contention model
// and engines are live, without touching a cache or a TLB: a replayed
// lookup hits when the page was resident and its generation is the one
// the CPU saw at its previous lookup of the page.
//
// A compressed recording (repeat.go) stores its repeating kernel call
// once: the stream is a varint head, the cold start and every simulated
// call, then a block, the last simulated call decoded into fixed-width
// records, which follows the head a repeat count of times.

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
	// OpReturn ends one kernel call (InitTouch or Step).
	OpReturn
)

// Op is one structural step of a recorded run, in host execution order.
type Op struct {
	Kind OpKind
	CPU  int
	Name string
}

// Record kinds of a per-CPU log: the low two bits of each record's tag.
// A miss tag adds the write bit and the TLB residency bit (the vpn was
// loaded in the recording CPU's TLB before the call) above them.
const (
	recMiss    = 0 // tag = n<<4|resident<<3|write<<2; then zigzag Δvpn, advance
	recBarrier = 1 // then advance, Δaccesses, ΔL1 misses
	recEnd     = 2 // as recBarrier
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

	// Repeat detection (repeat.go).
	marks   []callMark   // the last minRepeatSteps+1 calls' ends
	last    *repeatState // the newest call's state, if built
	spare   *repeatState // a dropped state's buffers, for the next one
	blocked string
	loop    loop // the block, once Repeat has fired
}

// cpuLog is one CPU's log and its baseline: the state at its previous
// log point.
type cpuLog struct {
	buf     []byte
	vpn     uint64 // page of the previous miss record
	clock   int64  // clock at the previous log point
	acc, l1 uint64 // Accesses and L1Miss at the previous sync record
	dirty   bool   // miss records since the previous sync record
}

// NewRecorder returns a recorder for m's CPUs. The CPUs' current
// clocks and counts are the baseline.
func NewRecorder(m *Machine) *Recorder {
	r := &Recorder{m: m, logs: make([]cpuLog, len(m.cpus)), serial: -1}
	for i, c := range m.cpus {
		r.logs[i] = cpuLog{clock: c.clock, acc: c.stat.Accesses, l1: c.stat.L1Miss}
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
		r.logs, r.ops, r.marks, r.last, r.spare = nil, nil, nil, nil, nil
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

// miss logs one memory call by c; resident says whether vpn was loaded
// in c's TLB before it.
func (r *Recorder) miss(c *CPU, vpn uint64, write bool, n int, resident bool) {
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
	tag := uint64(n) << 4
	if resident {
		tag |= 1 << 3
	}
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
	r.ops = append(r.ops, op)
}

// Finish returns the recorded stream, or an error naming why the
// recording was declined.
func (r *Recorder) Finish() (*Stream, error) {
	if r.declined != "" {
		return nil, fmt.Errorf("machine: stream declined: %s", r.declined)
	}
	s := &Stream{Ops: r.ops, logs: make([][]byte, len(r.logs)), loop: r.loop}
	for i := range r.logs {
		s.logs[i] = r.logs[i].buf
	}
	return s, nil
}

// Stream is a finished recording: the structural steps in host order and
// one compact log per CPU, its head, followed, when the recording
// repeated, by its block a repeat count of times. It is immutable; any
// number of replays may read it concurrently, each through its own
// StreamReader.
type Stream struct {
	// Ops is the head's structural steps.
	Ops  []Op
	logs [][]byte // the head's per-CPU varint logs
	loop loop
}

// loop is a compressed stream's block: the kernel call that repeats,
// which is also the last call of the head.
type loop struct {
	ops    []Op         // its structural steps, ending with an OpReturn
	logs   [][]byte     // each CPU's varint records, the tail of its head log
	recs   [][]blockRec // the same records, decoded
	repeat int          // the copies that follow the head; 0 without a block
}

// blockRec is one record of a block, decoded: 16 bytes, which a replay
// reads without decoding a varint. The vpn is absolute; it is the same
// in every copy, since the block's Δvpn chain starts and ends on the
// CPU's last vpn, which Repeat requires to repeat.
type blockRec struct {
	adv int64  // the clock advance
	a   uint32 // a miss's vpn; a sync record's Δaccesses
	tag uint32 // a miss's log tag; a sync record's ΔL1 misses<<2 | its kind
}

// Reasons a block does not fit its records; each blocks the repeat.
const (
	whyBlockVPN   = "block vpn exceeds 32 bits"
	whyBlockRun   = "block miss run exceeds 28 bits"
	whyBlockAcc   = "block access count exceeds 32 bits"
	whyBlockL1    = "block L1-miss count exceeds 30 bits"
	whyBlockChain = "block vpn chain does not close"
)

// decodeBlock decodes each CPU's block records, whose Δvpn chain starts
// at the CPU log's last vpn, into one allocation, counted first so that
// it holds no slack (FT's Class A block decodes to 69 MB). It returns a
// reason instead when a value does not fit its field or a chain does
// not end on the vpn it started from. An advance always fits: it is the
// int64 the varint holds.
func decodeBlock(blocks [][]byte, logs []cpuLog) ([][]blockRec, string) {
	n := 0
	for _, b := range blocks {
		n += countRecords(b)
	}
	slab := make([]blockRec, 0, n)
	recs := make([][]blockRec, len(blocks))
	for c, b := range blocks {
		start, vpn := len(slab), logs[c].vpn
		for pos := 0; pos < len(b); {
			tag := uvarint(b, &pos)
			if kind := tag & 3; kind != recMiss {
				adv, acc, l1 := uvarint(b, &pos), uvarint(b, &pos), uvarint(b, &pos)
				switch {
				case acc > math.MaxUint32:
					return nil, whyBlockAcc
				case l1 > math.MaxUint32>>2:
					return nil, whyBlockL1
				}
				slab = append(slab, blockRec{adv: int64(adv), a: uint32(acc), tag: uint32(l1<<2 | kind)})
				continue
			}
			z := uvarint(b, &pos)
			vpn += uint64(int64(z>>1) ^ -int64(z&1))
			adv := uvarint(b, &pos)
			switch {
			case vpn > math.MaxUint32:
				return nil, whyBlockVPN
			case tag > math.MaxUint32:
				return nil, whyBlockRun
			}
			slab = append(slab, blockRec{adv: int64(adv), a: uint32(vpn), tag: uint32(tag)})
		}
		if vpn != logs[c].vpn {
			return nil, whyBlockChain
		}
		recs[c] = slab[start:len(slab):len(slab)]
	}
	return recs, ""
}

// countRecords returns the number of records in log bytes b.
func countRecords(b []byte) int {
	n := 0
	for pos := 0; pos < len(b); n++ {
		fields := 2
		if uvarint(b, &pos)&3 != recMiss {
			fields = 3
		}
		for range fields {
			uvarint(b, &pos)
		}
	}
	return n
}

// uvarint returns the varint at b[*pos:] and moves *pos past it.
func uvarint(b []byte, pos *int) uint64 {
	v, k := binary.Uvarint(b[*pos:])
	if k <= 0 {
		panic(fmt.Sprintf("machine: stream corrupt at byte %d", *pos))
	}
	*pos += k
	return v
}

// StreamSize is what a Stream stores: its varint head and decoded
// block. The block's varint form is the head's last call, so it adds
// nothing to the head; expanded, the log holds HeadBytes + Repeat ×
// BlockBytes.
type StreamSize struct {
	HeadBytes    int `json:"head_bytes"`
	BlockBytes   int `json:"block_bytes,omitempty"`
	Repeat       int `json:"repeat,omitempty"`
	DecodedBytes int `json:"decoded_bytes,omitempty"`
}

// Size returns what s stores.
func (s *Stream) Size() StreamSize {
	z := StreamSize{Repeat: s.loop.repeat}
	for c, l := range s.logs {
		z.HeadBytes += len(l)
		if s.loop.repeat > 0 {
			z.BlockBytes += len(s.loop.logs[c])
			z.DecodedBytes += len(s.loop.recs[c]) * 16
		}
	}
	return z
}

// String renders the size for reports: "head 1.2 MB, block 180.3 kB
// ×35, 540.1 kB decoded", or "head 5.7 MB" without a block.
func (z StreamSize) String() string {
	s := "head " + sizeString(z.HeadBytes)
	if z.Repeat > 0 {
		s += fmt.Sprintf(", block %s ×%d, %s decoded", sizeString(z.BlockBytes), z.Repeat, sizeString(z.DecodedBytes))
	}
	return s
}

// sizeString renders n bytes in kB, or in MB from 1 MB on.
func sizeString(n int) string {
	if n < 1e6 {
		return fmt.Sprintf("%.1f kB", float64(n)/1e3)
	}
	return fmt.Sprintf("%.1f MB", float64(n)/1e6)
}

// expand returns s's Ops and per-CPU logs with the block written out
// after the head as many times as it repeats: the log of a recording
// that simulated every call.
func (s *Stream) expand() ([]Op, [][]byte) {
	b := s.loop
	if b.repeat == 0 {
		return s.Ops, s.logs
	}
	ops := append(slices.Clip(s.Ops), slices.Repeat(b.ops, b.repeat)...)
	logs := make([][]byte, len(s.logs))
	for c, l := range s.logs {
		logs[c] = append(slices.Clip(l), bytes.Repeat(b.logs[c], b.repeat)...)
	}
	return ops, logs
}

// Diff names the first difference between the expanded logs of s and o,
// an Ops index or a CPU log's byte offset, or returns "" when the two
// are identical.
func (s *Stream) Diff(o *Stream) string {
	sOps, sLogs := s.expand()
	oOps, oLogs := o.expand()
	for i := range min(len(sOps), len(oOps)) {
		if sOps[i] != oOps[i] {
			return fmt.Sprintf("Ops[%d]: %+v vs %+v", i, sOps[i], oOps[i])
		}
	}
	if len(sOps) != len(oOps) {
		return fmt.Sprintf("len(Ops): %d vs %d", len(sOps), len(oOps))
	}
	if len(sLogs) != len(oLogs) {
		return fmt.Sprintf("CPU logs: %d vs %d", len(sLogs), len(oLogs))
	}
	for c, a := range sLogs {
		b := oLogs[c]
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				return fmt.Sprintf("cpu %d log byte %d", c, i)
			}
		}
		if len(a) != len(b) {
			return fmt.Sprintf("cpu %d log length: %d vs %d", c, len(a), len(b))
		}
	}
	return ""
}

// StreamReader is one replay's position in a Stream's steps and
// per-CPU logs, and the replay's TLB state: the generation each CPU saw
// at its previous lookup of each page of the replay machine's heap.
type StreamReader struct {
	s    *Stream
	ops  []Op // the head's steps, then the block's
	op   int  // the next step's index in ops
	left int  // copies of the block still to start
	loop bool // the head is done: every CPU reads the decoded block
	pos  []int
	vpn  []uint64
	seen [][]uint32
}

// NewReader returns a reader positioned at the start of every log, for
// a replay on m. m must have allocated its heap: every page the stream
// misses on lies in it, and the TLB table covers it.
func (s *Stream) NewReader(m *Machine) *StreamReader {
	n, pages := uint64(len(s.logs)), m.AllocatedPages()
	rd := &StreamReader{s: s, ops: s.Ops, left: s.loop.repeat,
		pos: make([]int, n), vpn: make([]uint64, n), seen: make([][]uint32, n)}
	seen := make([]uint32, n*pages)
	for c := range rd.seen {
		rd.seen[c] = seen[uint64(c)*pages : uint64(c+1)*pages]
	}
	return rd
}

// Op returns the stream's next structural step. At the OpReturn that
// ends the head, and at each that ends a copy of the block but the
// last, it moves every CPU to the start of the decoded block, so the
// switch costs no test per miss record.
func (rd *StreamReader) Op() Op {
	op := rd.ops[rd.op]
	rd.op++
	if rd.op == len(rd.ops) && rd.left > 0 {
		rd.ops, rd.op, rd.left, rd.loop = rd.s.loop.ops, 0, rd.left-1, true
		clear(rd.pos)
	}
	return op
}

// Replay feeds CPU c its logged charges and misses up to its next sync
// record, and reports whether that record is a barrier arrival (true) or
// the end of c's share of a region or serial section (false).
func (rd *StreamReader) Replay(c *CPU) bool {
	if rd.loop {
		return rd.replayBlock(c)
	}
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
		c.replayMiss(rd.vpn[c.ID], tag&4 != 0, int(tag>>4), tag&8 != 0, rd.seen[c.ID])
	}
}

// replayBlock is Replay over the decoded block.
func (rd *StreamReader) replayBlock(c *CPU) bool {
	recs, pos, seen := rd.s.loop.recs[c.ID], rd.pos[c.ID], rd.seen[c.ID]
	for {
		r := &recs[pos]
		pos++
		if kind := r.tag & 3; kind != recMiss {
			c.replayAdvance(r.adv, uint64(r.a), uint64(r.tag>>2))
			rd.pos[c.ID] = pos
			return kind == recBarrier
		}
		c.replayAdvance(r.adv, 0, 0)
		c.replayMiss(uint64(r.a), r.tag&4 != 0, int(r.tag>>4), r.tag&8 != 0, seen)
	}
}

// replayAdvance charges a logged placement-free clock advance (L1 and L2
// hits, flops) and the access and L1-miss counts that came with it.
func (c *CPU) replayAdvance(adv int64, accesses, l1Miss uint64) {
	c.clock += adv
	c.stat.Accesses += accesses
	c.stat.L1Miss += l1Miss
}
