package machine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"upmgo/internal/vm"
)

// streamWork is the simulated work of one CPU in one phase of program:
// stores that first-touch the array (phase -1, the master's serial
// section), strided and scalar reads and writes of the CPU's own block
// (phase 0) and reads of its neighbour's (phase 1), with flops between.
func streamWork(m *Machine, a *Array, c *CPU, phase int) {
	n := a.Len()
	switch phase {
	case -1:
		c.StoreRun(a.Addr(0), n, 8)
		return
	}
	per := n / m.NumCPUs()
	lo := c.ID * per
	if phase == 1 {
		lo = (c.ID + 1) % m.NumCPUs() * per
	}
	c.LoadRun(a.Addr(lo), per, 8)
	c.Flops(50 + c.ID)
	c.StoreRun(a.Addr(lo), per/2, 16)
	for i := lo; i < lo+per; i += 37 {
		c.Load(a.Addr(i))
	}
	c.Store(a.Addr(lo + per - 1))
}

// program drives m through the omp runtime's clock choreography: a
// serial section on CPU 0, then one parallel region in which every CPU
// runs phase 0, arrives at a barrier, runs phase 1 and ends. With rd nil
// the work is simulated (and reported to m's recorder, if any); with rd
// set each CPU replays its logged share instead, reading the steps from
// rd as the nas replay kernel does.
func program(m *Machine, a *Array, rd *StreamReader) {
	rec := m.Recorder()
	cpus := m.CPUs()
	master := cpus[0]
	if rd != nil {
		expectOp(rd, OpSerial)
		rd.Replay(master)
		expectOp(rd, OpRegion)
	} else {
		streamWork(m, a, master, -1)
	}
	if rec != nil {
		rec.Fork("region")
	}
	master.SetClock(m.Settle(cpus[:1], 0))
	start := master.Now() + m.Lat.Fork
	for _, c := range cpus {
		c.SetClock(start)
	}
	for phase := 0; phase < 2; phase++ {
		for _, c := range cpus {
			switch {
			case rd != nil:
				if barrier := rd.Replay(c); barrier != (phase == 0) {
					panic("replayed sync record of the wrong kind")
				}
			case phase == 0:
				streamWork(m, a, c, phase)
				if rec != nil {
					rec.Arrive(c)
				}
			default:
				streamWork(m, a, c, phase)
				if rec != nil {
					rec.End(c)
				}
			}
		}
		if phase == 1 && rec != nil {
			rec.Join()
		}
		end := m.Settle(cpus, start) + m.Lat.BarrierBase
		for _, c := range cpus {
			c.SetClock(end)
		}
		start = end
	}
	if rec != nil {
		rec.Mark(OpReturn, nil)
	}
	if rd != nil {
		expectOp(rd, OpReturn)
	}
}

// expectOp reads rd's next step and panics unless it is of kind k.
func expectOp(rd *StreamReader, k OpKind) {
	if op := rd.Op(); op.Kind != k {
		panic(fmt.Sprintf("replayed step %+v, want kind %d", op, k))
	}
}

func streamMachine(t *testing.T, p vm.Policy) (*Machine, *Array) {
	t.Helper()
	cfg := bulkTestConfig()
	cfg.Placement = p
	m := MustNew(cfg)
	return m, m.NewArray("a", 8*1024)
}

// TestStreamReplayMatchesSimulation is the machine-level replay
// contract: one recording, made under first touch, replayed on fresh
// machines under every placement, leaves every CPU's clock and counters,
// the machine's statistics and every page's reference counters exactly
// where simulating the same work under that placement does — without
// touching a cache or a TLB — so the whole counter vector the
// steady-state detector reads is equal too.
func TestStreamReplayMatchesSimulation(t *testing.T) {
	m, a := streamMachine(t, vm.FirstTouch)
	rec := NewRecorder(m)
	m.SetRecorder(rec)
	program(m, a, nil)
	s, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{Kind: OpSerial, CPU: 0}, {Kind: OpRegion, Name: "region"}, {Kind: OpReturn, CPU: -1}}
	if !reflect.DeepEqual(s.Ops, want) {
		t.Errorf("ops %+v, want %+v", s.Ops, want)
	}
	if s.Size().HeadBytes == 0 {
		t.Fatal("empty stream")
	}
	for _, p := range vm.Policies {
		sim, sa := streamMachine(t, p)
		program(sim, sa, nil)
		rep, _ := streamMachine(t, p)
		rd := s.NewReader(rep)
		program(rep, nil, rd)
		pages := sim.AllocatedPages()
		for i, c := range sim.CPUs() {
			r := rep.CPU(i)
			if c.Now() != r.Now() || c.Stat() != r.Stat() {
				t.Errorf("%v cpu %d: replay clock %d stats %+v, simulation %d %+v", p, i, r.Now(), r.Stat(), c.Now(), c.Stat())
			}
			l1, _ := r.l1.Lines()
			l2, _ := r.l2.Lines()
			valid := func(tag uint64) bool { return tag != 0 }
			if slices.ContainsFunc(l1, valid) || slices.ContainsFunc(l2, valid) || slices.ContainsFunc(r.tlb.Ways(), valid) {
				t.Errorf("%v cpu %d: replay touched its caches or its TLB", p, i)
			}
		}
		if sim.Stats() != rep.Stats() {
			t.Errorf("%v: replay stats %+v, simulation %+v", p, rep.Stats(), sim.Stats())
		}
		if cs, cr := sim.CounterTable(nil).Snapshot(nil), rep.CounterTable(nil).Snapshot(nil); !reflect.DeepEqual(cs, cr) {
			t.Errorf("%v: replay counters %v, simulation %v", p, cr, cs)
		}
		var cs, cr []uint32
		for vpn := uint64(0); vpn < pages; vpn++ {
			cs, cr = sim.PT.Counters(vpn, cs), rep.PT.Counters(vpn, cr)
			if !reflect.DeepEqual(cs, cr) {
				t.Errorf("%v page %d: replay counters %v, simulation %v", p, vpn, cr, cs)
			}
		}
	}
}

// TestRecorderSerialSectionsKeepOrder: serial misses on a second CPU
// close the first CPU's section, so the replay issues the misses in the
// order they happened.
func TestRecorderSerialSectionsKeepOrder(t *testing.T) {
	m, a := streamMachine(t, vm.FirstTouch)
	rec := NewRecorder(m)
	m.SetRecorder(rec)
	m.CPU(0).Load(a.Addr(0))
	m.CPU(3).Load(a.Addr(2048))
	m.CPU(0).Load(a.Addr(4096))
	rec.Mark(OpPhaseEnter, m.CPU(0))
	s, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{Kind: OpSerial, CPU: 0}, {Kind: OpSerial, CPU: 3}, {Kind: OpSerial, CPU: 0}, {Kind: OpPhaseEnter, CPU: 0}}
	if !reflect.DeepEqual(s.Ops, want) {
		t.Errorf("ops %+v, want %+v", s.Ops, want)
	}
}

// TestRecorderDeclines: every construct the replay cannot reproduce
// abandons the recording with a named reason, detaches the recorder from
// its callers and makes Finish fail.
func TestRecorderDeclines(t *testing.T) {
	for _, c := range []struct {
		reason string
		do     func(m *Machine, a *Array, r *Recorder)
	}{
		{"clock written over unrecorded work", func(m *Machine, a *Array, r *Recorder) {
			m.CPU(1).Load(a.Addr(0))
			m.CPU(1).SetClock(0)
		}},
		{"clock written over unrecorded work", func(m *Machine, a *Array, r *Recorder) {
			m.CPU(2).Flops(3)
			m.Settle(m.CPUs(), 0)
		}},
		{"write tracking", func(m *Machine, a *Array, r *Recorder) {
			m.PT.SetWriteTracking(true)
			m.CPU(0).Store(a.Addr(0))
		}},
		{"barrier outside a parallel region", func(m *Machine, a *Array, r *Recorder) {
			r.Arrive(m.CPU(0))
		}},
		{"structural mark inside a parallel region", func(m *Machine, a *Array, r *Recorder) {
			r.Fork("x")
			r.Mark(OpPhaseEnter, m.CPU(0))
		}},
	} {
		m, a := streamMachine(t, vm.FirstTouch)
		rec := NewRecorder(m)
		m.SetRecorder(rec)
		c.do(m, a, rec)
		if got := rec.Declined(); !strings.Contains(got, c.reason) {
			t.Errorf("declined %q, want %q", got, c.reason)
		}
		if m.Recorder() != nil {
			t.Errorf("%s: declined recorder still attached", c.reason)
		}
		// Reporting to a declined recorder is harmless.
		rec.End(m.CPU(0))
		rec.Fork("y")
		m.CPU(0).Load(a.Addr(100))
		if _, err := rec.Finish(); err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: Finish error %v", c.reason, err)
		}
	}
}

// recordProgram records calls+1 calls of program, the first starting
// Repeat's history, letting Repeat fire when compress is set.
func recordProgram(t *testing.T, calls int, compress bool) *Stream {
	t.Helper()
	m, a := streamMachine(t, vm.FirstTouch)
	rec := NewRecorder(m)
	m.SetRecorder(rec)
	for call := 0; call <= calls; call++ {
		program(m, a, nil)
		if compress && rec.Repeat(calls-call) {
			break
		}
	}
	s, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamLoopMatchesExpanded is the contract of the stored block: a
// compressed stream, replayed as its varint head and then its decoded
// block looped, leaves every CPU's clock and counters where a replay of
// the full recording leaves them at every OpReturn — the head's last
// one, where the reader switches to the block, and each one that ends a
// copy of the block — under every placement.
func TestStreamLoopMatchesExpanded(t *testing.T) {
	const calls = 9
	s, full := recordProgram(t, calls, true), recordProgram(t, calls, false)
	if z := s.Size(); z.Repeat < 2 || z.BlockBytes == 0 || z.DecodedBytes == 0 {
		t.Fatalf("stream size %+v, want a block repeated at least twice", z)
	}
	if full.Size().Repeat != 0 {
		t.Fatal("the full recording has a block")
	}
	if d := s.Diff(full); d != "" {
		t.Fatalf("compressed stream differs from the full recording at %s", d)
	}
	head := calls + 1 - s.Size().Repeat
	for _, p := range vm.Policies {
		loop, _ := streamMachine(t, p)
		ref, _ := streamMachine(t, p)
		rl, rr := s.NewReader(loop), full.NewReader(ref)
		for call := 0; call <= calls; call++ {
			program(loop, nil, rl)
			program(ref, nil, rr)
			if rl.loop != (call >= head-1) {
				t.Fatalf("%v call %d: reading the block %v, want %v", p, call, rl.loop, call >= head-1)
			}
			for i, c := range ref.CPUs() {
				if l := loop.CPU(i); l.Now() != c.Now() || l.Stat() != c.Stat() {
					t.Errorf("%v call %d cpu %d: looped replay clock %d stats %+v, expanded %d %+v",
						p, call, i, l.Now(), l.Stat(), c.Now(), c.Stat())
				}
			}
		}
		if loop.Stats() != ref.Stats() {
			t.Errorf("%v: looped replay stats %+v, expanded %+v", p, loop.Stats(), ref.Stats())
		}
	}
}
