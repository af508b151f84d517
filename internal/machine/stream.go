package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
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
//
// A recording publishes its stream as it goes. At every kernel-call
// boundary (Mark(OpReturn)) it publishes its frontier: the length of the
// op list and of each CPU's log. The head is append-only, so published
// bytes never change, and replays follow the recording call by call: a
// reader that reaches the frontier parks until the next publication.
// Finish publishes the final frontier, the whole head and the block; a
// finished stream is one whose frontier is final.

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
	out      *Stream // where the recording publishes
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

// NewRecorder returns a recorder for m's CPUs that publishes into out,
// a stream nothing has recorded into yet (NewStream). The CPUs' current
// clocks and counts are the baseline.
func NewRecorder(m *Machine, out *Stream) *Recorder {
	r := &Recorder{m: m, out: out, logs: make([]cpuLog, len(m.cpus)), serial: -1}
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
// (with c nil) the end of a kernel call, where it publishes the stream's
// frontier. Serial work done before it is flushed first.
func (r *Recorder) Mark(kind OpKind, c *CPU) {
	if r.declined != "" {
		return
	}
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
	if kind == OpReturn {
		r.publish(false)
	}
}

// ErrDeclined is the error of a stream whose recording declined.
var ErrDeclined = errors.New("stream declined")

// Finish publishes the stream's final frontier and returns the stream,
// or an error naming why the recording was declined, which its readers
// fail with too.
func (r *Recorder) Finish() (*Stream, error) {
	if r.declined != "" {
		err := fmt.Errorf("machine: %w: %s", ErrDeclined, r.declined)
		r.out.Abort(err)
		return nil, err
	}
	r.publish(true)
	return r.out, nil
}

// publish publishes the recording's head as it stands, and its block.
// The published slices are clipped, so that no reader's append can
// write into the recorder's buffers.
func (r *Recorder) publish(final bool) {
	f := frontier{ops: slices.Clip(r.ops), logs: make([][]byte, len(r.logs)), loop: r.loop, final: final}
	for i := range r.logs {
		f.logs[i] = slices.Clip(r.logs[i].buf)
	}
	r.out.publish(f)
}

// Stream is a recording: the structural steps in host order and one
// compact log per CPU, its head, followed, when the recording repeated,
// by its block a repeat count of times. Readers see its published
// frontier (see the section comment above), which never changes once
// published, so any number of replays may read it concurrently, each
// through its own StreamReader, while the recording goes on.
type Stream struct {
	mu    sync.Mutex
	f     frontier
	ready chan struct{} // closed at the next publication
}

// frontier is what a recording has published.
type frontier struct {
	ops   []Op     // the head's structural steps so far
	logs  [][]byte // the head's per-CPU varint logs so far
	loop  loop     // the block, once final
	final bool     // the recording has ended
	err   error    // why it ended without a stream, once final
}

// A Parker is what a reader does at the frontier of a stream still
// being recorded: it blocks until ready is closed, at the recording's
// next publication, and returns nil, or returns an error, which aborts
// the read. A nil Parker blocks.
type Parker func(ready <-chan struct{}) error

// Park parks with p.
func (p Parker) Park(ready <-chan struct{}) error {
	if p == nil {
		<-ready
		return nil
	}
	return p(ready)
}

// NewStream returns a stream with nothing published, for a recorder to
// publish into (NewRecorder).
func NewStream() *Stream { return &Stream{ready: make(chan struct{})} }

// Abort ends a recording without a stream: readers parked at its
// frontier, and every later one, fail with err.
func (s *Stream) Abort(err error) { s.publish(frontier{final: true, err: err}) }

func (s *Stream) publish(f frontier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f = f
	close(s.ready)
	s.ready = make(chan struct{})
}

// published returns the published frontier and a channel closed at the
// next publication.
func (s *Stream) published() (frontier, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f, s.ready
}

// WaitBegun parks until the recording has published its first kernel
// call, or ended, and returns its error if it failed.
func (s *Stream) WaitBegun(park Parker) error {
	return s.wait(park, func(f frontier) bool { return len(f.ops) > 0 })
}

// WaitFinal parks until the recording has ended and returns its error
// if it failed.
func (s *Stream) WaitFinal(park Parker) error {
	return s.wait(park, func(frontier) bool { return false })
}

func (s *Stream) wait(park Parker, done func(frontier) bool) error {
	for {
		f, ready := s.published()
		if f.final || done(f) {
			return f.err
		}
		if err := park.Park(ready); err != nil {
			return err
		}
	}
}

// Ops returns the published head's structural steps.
func (s *Stream) Ops() []Op {
	f, _ := s.published()
	return f.ops
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

// Size returns what s stores, as published.
func (s *Stream) Size() StreamSize {
	f, _ := s.published()
	z := StreamSize{Repeat: f.loop.repeat}
	for c, l := range f.logs {
		z.HeadBytes += len(l)
		if f.loop.repeat > 0 {
			z.BlockBytes += len(f.loop.logs[c])
			z.DecodedBytes += len(f.loop.recs[c]) * 16
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
	f, _ := s.published()
	b := f.loop
	if b.repeat == 0 {
		return f.ops, f.logs
	}
	ops := append(f.ops, slices.Repeat(b.ops, b.repeat)...)
	logs := make([][]byte, len(f.logs))
	for c, l := range f.logs {
		logs[c] = append(l, bytes.Repeat(b.logs[c], b.repeat)...)
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
// per-CPU logs, and the replay's TLB state: whether each CPU saw each
// page of the replay machine's heap at its current generation.
type StreamReader struct {
	s    *Stream
	park Parker
	f    frontier // the frontier as the reader last saw it
	ops  []Op     // the head's steps, then the block's
	op   int      // the next step's index in ops
	left int      // copies of the block still to start
	loop bool     // the head is done: every CPU reads the decoded block
	pos  []int
	vpn  []uint64
	tlb  lastSeen
}

// NewReader returns a reader positioned at the start of every log, for
// a replay on m, that parks with park at the frontier of a stream still
// being recorded. m must have allocated its heap: every page the stream
// misses on lies in it, and the TLB table covers it.
func (s *Stream) NewReader(m *Machine, park Parker) *StreamReader {
	n := len(m.cpus)
	f, _ := s.published()
	return &StreamReader{s: s, park: park, f: f, ops: f.ops,
		pos: make([]int, n), vpn: make([]uint64, n), tlb: newLastSeen(n, m.AllocatedPages())}
}

// errPastEnd is the error of a reader asked for a step after the
// stream's last one.
var errPastEnd = errors.New("machine: stream read past its end")

// Op returns the stream's next structural step. At the end of the steps
// it has read it moves on (advance), so switching to the block costs no
// test per miss record. It returns an error when the read aborts: the
// recording failed or declined, or the reader's Parker gave up.
func (rd *StreamReader) Op() (Op, error) {
	if rd.op == len(rd.ops) {
		if err := rd.advance(); err != nil {
			return Op{}, err
		}
	}
	op := rd.ops[rd.op]
	rd.op++
	return op, nil
}

// advance moves the reader on from the end of its steps: to the next
// copy of the block, or to the newest frontier, parking until the
// recording publishes one past the reader. At the final frontier it
// moves every CPU to the start of the decoded block.
func (rd *StreamReader) advance() error {
	if rd.loop {
		if rd.left == 0 {
			return errPastEnd
		}
		rd.op, rd.left = 0, rd.left-1
		clear(rd.pos)
		return nil
	}
	for {
		f, ready := rd.s.published()
		switch {
		case f.err != nil:
			return f.err
		case len(f.ops) > rd.op:
			rd.f, rd.ops = f, f.ops
			return nil
		case f.final && f.loop.repeat > 0:
			rd.f, rd.ops, rd.op, rd.left, rd.loop = f, f.loop.ops, 0, f.loop.repeat-1, true
			clear(rd.pos)
			return nil
		case f.final:
			return errPastEnd
		}
		if err := rd.park.Park(ready); err != nil {
			return err
		}
	}
}

// Replay feeds CPU c its logged charges and misses up to its next sync
// record, and reports whether that record is a barrier arrival (true) or
// the end of c's share of a region or serial section (false).
func (rd *StreamReader) Replay(c *CPU) bool {
	if rd.loop {
		return rd.replayBlock(c)
	}
	buf, pos := rd.f.logs[c.ID], rd.pos[c.ID]
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
		c.replayMiss(rd.vpn[c.ID], tag&4 != 0, int(tag>>4), tag&8 != 0, rd.tlb)
	}
}

// replayBlock is Replay over the decoded block.
func (rd *StreamReader) replayBlock(c *CPU) bool {
	recs, pos, tlb := rd.f.loop.recs[c.ID], rd.pos[c.ID], rd.tlb
	for {
		r := &recs[pos]
		pos++
		if kind := r.tag & 3; kind != recMiss {
			c.replayAdvance(r.adv, uint64(r.a), uint64(r.tag>>2))
			rd.pos[c.ID] = pos
			return kind == recBarrier
		}
		c.replayAdvance(r.adv, 0, 0)
		c.replayMiss(uint64(r.a), r.tag&4 != 0, int(r.tag>>4), r.tag&8 != 0, tlb)
	}
}

// replayAdvance charges a logged placement-free clock advance (L1 and L2
// hits, flops) and the access and L1-miss counts that came with it.
func (c *CPU) replayAdvance(adv int64, accesses, l1Miss uint64) {
	c.clock += adv
	c.stat.Accesses += accesses
	c.stat.L1Miss += l1Miss
}
