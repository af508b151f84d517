package machine

import (
	"encoding/binary"
	"testing"

	"upmgo/internal/vm"
)

// repeatCall is one kernel call of the repeat tests: serial reads of
// a's first 256 elements on CPU 0 and, with write set, stores to element
// 0 by CPU 1 and then CPU 0, each bumping the unit's version. It ends the
// call with an OpReturn mark.
func repeatCall(m *Machine, a *Array, write bool) {
	m.CPU(0).LoadRun(a.Addr(0), 256, 8)
	if write {
		m.CPU(1).Store(a.Addr(0))
		m.CPU(0).Store(a.Addr(0))
	}
	m.Recorder().Mark(OpReturn, nil)
}

// recordCalls records n calls after the call that starts Repeat's
// history, letting Repeat fire when compress is set; mutate, when
// non-nil, runs after every call's work and before its Repeat. It
// returns the recorder and the call at which Repeat fired (0 when it
// did not).
func recordCalls(t *testing.T, n int, write, compress bool, mutate func(m *Machine, a *Array, call int)) (*Recorder, int) {
	t.Helper()
	m, a := streamMachine(t, vm.FirstTouch)
	rec := NewRecorder(m, NewStream())
	m.SetRecorder(rec)
	for call := 0; call <= n; call++ {
		repeatCall(m, a, write)
		if mutate != nil {
			mutate(m, a, call)
		}
		if !compress {
			continue
		}
		if rec.Repeat(n - call) {
			if m.Recorder() != nil {
				t.Fatal("recorder still attached after firing")
			}
			return rec, call
		}
	}
	return rec, 0
}

// TestRepeatCopiesTail: identical calls repeat from the first window
// Repeat can compare, and the stream, its block expanded, is
// byte-identical to a recording of every call.
func TestRepeatCopiesTail(t *testing.T) {
	rec, at := recordCalls(t, 10, true, true, nil)
	if at != minRepeatSteps {
		t.Fatalf("fired at call %d, want %d", at, minRepeatSteps)
	}
	full, _ := recordCalls(t, 10, true, false, nil)
	s, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Diff(want); d != "" {
		t.Errorf("compressed stream differs from the full recording at %s", d)
	}
	// A detached recorder compares nothing more, so it cannot copy the
	// tail twice.
	for range 2 * minRepeatSteps {
		if rec.Repeat(5) {
			t.Fatal("Repeat fired again after detaching")
		}
	}
}

// TestRepeatStateChangeBlocks mutates one part of the cache-side state
// after the call Repeat would fire at. The log bytes and every other
// part still repeat, so each mutation alone must block the repeat: a
// recording whose caches repeat while its TLB ways do not must not
// compress, since the ways decide the next calls' residency bits. The
// valid-or-stale case bumps the version of a unit CPU 0 holds valid: the
// tags, the directory's writer and shared bits and the logs repeat, and
// only that line is now stale where the call before held it valid.
func TestRepeatStateChangeBlocks(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(m *Machine, a *Array)
	}{
		{"stale line", func(m *Machine, a *Array) { m.lineState[a.Addr(0)>>m.cohShift] += 1 << 9 }},
		{"shared bit", func(m *Machine, a *Array) { m.lineState[a.Addr(0)>>m.cohShift] ^= 1 }},
		{"last vpn", func(m *Machine, a *Array) { m.rec.logs[0].vpn++ }},
		// A lookup outside the log loads a page into the set of a's
		// first page: CPU 0's TLB ways change, its caches do not.
		{"tlb ways", func(m *Machine, a *Array) {
			sets := uint64(m.Cfg.TLBEntries / m.Cfg.TLBWays)
			m.CPU(0).tlb.LookupRun(m.VPN(a.Addr(0))+sets, 0, 1)
		}},
	} {
		at := func(m *Machine, a *Array, call int) {
			if call == minRepeatSteps {
				c.mutate(m, a)
			}
		}
		rec, fired := recordCalls(t, minRepeatSteps+1, false, true, at)
		if fired != 0 {
			t.Errorf("%s: fired at call %d over a changed state", c.name, fired)
		}
		if rec.Blocked() != "" {
			t.Errorf("%s: Blocked %q, want no reason: nothing repeated", c.name, rec.Blocked())
		}
		// The full comparison alone decides, so it must tell the states
		// apart itself.
		m, a := streamMachine(t, vm.FirstTouch)
		rec = NewRecorder(m, NewStream())
		m.SetRecorder(rec)
		repeatCall(m, a, false)
		repeatCall(m, a, false)
		before := rec.state()
		repeatCall(m, a, false)
		if !before.equal(rec.state()) {
			t.Fatalf("%s: states of identical calls differ", c.name)
		}
		c.mutate(m, a)
		if before.equal(rec.state()) {
			t.Errorf("%s: the full comparison misses the change", c.name)
		}
	}
	// The control: without a mutation it fires at that call.
	if _, at := recordCalls(t, minRepeatSteps+1, false, true, nil); at != minRepeatSteps {
		t.Errorf("control fired at call %d, want %d", at, minRepeatSteps)
	}
}

// TestRepeatOpsBlock: calls that append the same log bytes but
// alternate their structural steps never repeat the call before them,
// so Repeat never fires.
func TestRepeatOpsBlock(t *testing.T) {
	m, a := streamMachine(t, vm.FirstTouch)
	rec := NewRecorder(m, NewStream())
	m.SetRecorder(rec)
	for call := 0; call <= 12; call++ {
		if call%2 == 1 {
			rec.Mark(OpPhaseEnter, m.CPU(0))
		}
		repeatCall(m, a, false)
		if rec.Repeat(12 - call) {
			t.Fatalf("fired at call %d over alternating Ops", call)
		}
	}
}

// TestRepeatVersionWrapBlocks: a unit whose version gains two per call
// and sits near the top of its 23-bit field would wrap within the
// remaining calls, so the repeat is refused with a reason until the
// simulation itself has wrapped it and refreshed every copy; the log
// then still equals a full recording.
func TestRepeatVersionWrapBlocks(t *testing.T) {
	high := func(m *Machine, a *Array, call int) {
		if call == 0 {
			u := a.Addr(0) >> m.cohShift
			m.lineState[u] = (versionLimit-40)<<9 | m.lineState[u]&0x1ff
		}
	}
	const n = 30
	rec, at := recordCalls(t, n, true, true, high)
	if at != 0 && at <= 20 {
		t.Fatalf("fired at call %d, before the version wrapped", at)
	}
	if rec.Blocked() == "" {
		t.Error("no reason given for the refused repeat")
	}
	full, _ := recordCalls(t, n, true, false, high)
	s, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Diff(want); d != "" {
		t.Errorf("stream differs from the full recording at %s", d)
	}
	if _, at := recordCalls(t, 12, true, true, high); at == 0 {
		t.Error("a short run whose versions fit did not fire")
	}
}

// TestRepeatWideL1Blocks: an L1 line wider than a coherence unit spans
// several directory versions, so Repeat refuses to compare, with a
// reason.
func TestRepeatWideL1Blocks(t *testing.T) {
	cfg := bulkTestConfig()
	cfg.L1Bytes, cfg.L1Line = 1024, 256
	m := MustNew(cfg)
	a := m.NewArray("a", 8*1024)
	rec := NewRecorder(m, NewStream())
	m.SetRecorder(rec)
	for call := 0; call <= 10; call++ {
		repeatCall(m, a, false)
		if rec.Repeat(10 - call) {
			t.Fatalf("fired at call %d", call)
		}
	}
	if rec.Blocked() == "" {
		t.Error("no reason given")
	}
}

// forge appends raw records to CPU 0's log after every call: the same
// bytes each time, so condition (b) still holds, and no change to the
// log's last vpn, so condition (a) does too. Each record is its varint
// fields, the Δvpn already zigzagged.
func forge(recs ...[]uint64) func(m *Machine, a *Array, call int) {
	return func(m *Machine, a *Array, call int) {
		l := &m.rec.logs[0]
		for _, r := range recs {
			for _, v := range r {
				l.buf = binary.AppendUvarint(l.buf, v)
			}
		}
	}
}

// zigzag encodes a Δvpn as the log does.
func zigzag(d int64) uint64 { return uint64(d<<1 ^ d>>63) }

// TestRepeatBlockWidthBlocks: a block value that does not fit its
// fixed-width record field blocks the repeat with a named reason rather
// than being truncated, and the recording simulates every call. An
// advance needs no guard: a 40-bit one fires and is kept whole.
func TestRepeatBlockWidthBlocks(t *testing.T) {
	for _, c := range []struct {
		name string
		recs [][]uint64
		why  string
	}{
		{"vpn", [][]uint64{{1<<4 | recMiss, zigzag(1 << 32), 0}, {1<<4 | recMiss, zigzag(-1 << 32), 0}}, whyBlockVPN},
		{"miss run", [][]uint64{{1 << 32, 0, 0}}, whyBlockRun},
		{"accesses", [][]uint64{{recBarrier, 0, 1 << 32, 0}}, whyBlockAcc},
		{"l1 misses", [][]uint64{{recEnd, 0, 0, 1 << 30}}, whyBlockL1},
		{"advance", [][]uint64{{recEnd, 1 << 40, 0, 0}}, ""},
	} {
		rec, at := recordCalls(t, 10, true, true, forge(c.recs...))
		if c.why == "" {
			if at == 0 {
				t.Fatalf("%s: blocked (%q), want a repeat", c.name, rec.Blocked())
			}
			recs := rec.loop.recs[0]
			if last := recs[len(recs)-1]; last.adv != 1<<40 {
				t.Errorf("%s: decoded advance %d, want %d", c.name, last.adv, int64(1)<<40)
			}
			continue
		}
		if at != 0 {
			t.Errorf("%s: fired at call %d over a value too wide for its field", c.name, at)
		}
		if rec.Blocked() != c.why {
			t.Errorf("%s: Blocked %q, want %q", c.name, rec.Blocked(), c.why)
		}
	}
}

// TestRepeatBlockChainBlocks: a block whose Δvpn chain does not end on
// the vpn it starts from would loop from a different page each copy, so
// the repeat is refused with a reason.
func TestRepeatBlockChainBlocks(t *testing.T) {
	rec, at := recordCalls(t, 10, true, true, forge([]uint64{1<<4 | recMiss, zigzag(1), 0}))
	if at != 0 {
		t.Errorf("fired at call %d over an open vpn chain", at)
	}
	if rec.Blocked() != whyBlockChain {
		t.Errorf("Blocked %q, want %q", rec.Blocked(), whyBlockChain)
	}
}
