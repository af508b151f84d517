package omp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

// streamRegion is a region body with a barrier, a reduction and a
// worksharing loop: each member reads its own block of a, then writes
// its static share.
func streamRegion(a *machine.Array) func(tr *Thread) {
	return func(tr *Thread) {
		n := a.Len() / tr.team.n
		tr.CPU.LoadRun(a.Addr(tr.ID*n), n, 8)
		tr.Barrier()
		tr.ReduceSum(float64(tr.ID))
		tr.For(0, a.Len(), Static(), func(c *machine.CPU, from, to int) {
			c.StoreRun(a.Addr(from), to-from, 8)
			c.Flops(to - from)
		})
	}
}

// streamTeam describes a serial section on the master and then one
// region (streamRegion) on a team of a fresh machine.
type streamTeam struct {
	shape     string // machine.Config.SetTopology's shape; "" is the default machine
	threads   int
	placement vm.Policy
	serial    bool
	record    bool            // attach a stream recorder
	replay    *machine.Stream // replay this stream instead of simulating
	steps     bool            // replay through ParallelSteps instead of lanes
	traced    bool            // attach a trace.Recorder
}

// streamRun is what a streamTeam run leaves.
type streamRun struct {
	m      *machine.Machine
	team   *Team
	rec    *machine.Recorder
	events *trace.Recorder
}

// run simulates the section and the region (recorded when st.record is
// set), or replays them from st.replay: on lanes, whose body
// for-Replay-Barrier is the reference, or through ParallelSteps.
func (st streamTeam) run(t *testing.T) streamRun {
	t.Helper()
	cfg := machine.DefaultConfig()
	if st.shape != "" {
		if err := cfg.SetTopology(st.shape); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Placement = st.placement
	var r streamRun
	r.m = machine.MustNew(cfg)
	a := r.m.NewArray("a", 1<<14)
	var rd *machine.StreamReader
	if st.replay != nil {
		rd = st.replay.NewReader(r.m, nil)
	}
	if st.record {
		r.rec = machine.NewRecorder(r.m, machine.NewStream())
		r.m.SetRecorder(r.rec)
	}
	if st.traced {
		r.events = trace.NewRecorder()
		r.m.SetTracer(r.events)
	}
	r.team = MustTeam(r.m, st.threads)
	r.team.SetSerial(st.serial)
	switch {
	case rd == nil:
		r.team.Master().StoreRun(a.Addr(0), a.Len(), 8)
		r.team.ParallelNamed("work", streamRegion(a))
	case st.steps:
		rd.Replay(r.team.Master())
		r.team.ParallelSteps("work", rd.Replay)
	default:
		rd.Replay(r.team.Master())
		r.team.ParallelNamed("work", func(tr *Thread) {
			for rd.Replay(tr.CPU) {
				tr.Barrier()
			}
		})
	}
	return r
}

// TestRecorderReplaysTeam: a team's serial section, region, barriers
// and reduction, recorded under first touch, replay on a round-robin
// machine to the clocks and counters a simulation there reaches — in
// parallel and in serial mode.
func TestRecorderReplaysTeam(t *testing.T) {
	for _, serial := range []bool{false, true} {
		st := streamTeam{threads: 8, placement: vm.FirstTouch, serial: serial, record: true}
		s, err := st.run(t).rec.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := []machine.Op{{Kind: machine.OpSerial, CPU: 0}, {Kind: machine.OpRegion, Name: "work"}}
		if !reflect.DeepEqual(s.Ops(), want) {
			t.Errorf("serial=%v: ops %+v, want %+v", serial, s.Ops(), want)
		}
		st = streamTeam{threads: 8, placement: vm.RoundRobin, serial: serial}
		sim := st.run(t).m
		st.replay = s
		rep := st.run(t).m
		for i, c := range sim.CPUs() {
			if r := rep.CPU(i); r.Now() != c.Now() || r.Stat() != c.Stat() {
				t.Errorf("serial=%v cpu %d: replay clock %d stats %+v, simulation %d %+v",
					serial, i, r.Now(), r.Stat(), c.Now(), c.Stat())
			}
		}
	}
}

// TestParallelStepsMatchesLanes: a recorded region replayed through
// ParallelSteps leaves every CPU at the clock and counters, and the
// tracer with the events, that the same replay on lanes does — in
// parallel and in serial mode, 8 threads on the default machine and 256
// on hier256 — and starts no lane.
func TestParallelStepsMatchesLanes(t *testing.T) {
	for _, sh := range []struct {
		shape   string
		threads int
	}{{"", 8}, {"hier256", 256}} {
		for _, serial := range []bool{false, true} {
			name := fmt.Sprintf("%q/%d serial=%v", sh.shape, sh.threads, serial)
			st := streamTeam{shape: sh.shape, threads: sh.threads, placement: vm.FirstTouch, serial: serial, record: true}
			s, err := st.run(t).rec.Finish()
			if err != nil {
				t.Fatal(err)
			}
			st = streamTeam{shape: sh.shape, threads: sh.threads, placement: vm.RoundRobin, serial: serial, replay: s, traced: true}
			lanes := st.run(t)
			st.steps = true
			steps := st.run(t)
			for i, c := range lanes.m.CPUs() {
				if r := steps.m.CPU(i); r.Now() != c.Now() || r.Stat() != c.Stat() {
					t.Errorf("%s cpu %d: ParallelSteps clock %d stats %+v, lanes %d %+v",
						name, i, r.Now(), r.Stat(), c.Now(), c.Stat())
				}
			}
			want, got := lanes.events.Events(), steps.events.Events()
			arrivals := 0
			for _, ev := range want {
				if ev.Kind == trace.EvBarrierArrive {
					arrivals++
				}
			}
			if arrivals < 3*sh.threads {
				t.Errorf("%s: lanes traced %d barrier arrivals, want at least %d", name, arrivals, 3*sh.threads)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ParallelSteps traced %d events, lanes %d; first difference at %d",
					name, len(got), len(want), firstDiff(got, want))
			}
			if steps.team.crew != nil {
				t.Errorf("%s: ParallelSteps started a crew", name)
			}
		}
	}
}

func firstDiff(a, b []trace.Event) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestParallelStepsMismatchPanics: members that disagree on the number
// of barriers panic as a deadlock, naming who waits and who finished.
func TestParallelStepsMismatchPanics(t *testing.T) {
	tm := newTeam(t, 4)
	steps := make([]int, 4)
	defer func() {
		p, _ := recover().(string)
		if !strings.Contains(p, "deadlock") || !strings.Contains(p, "thread 0 finished") ||
			!strings.Contains(p, "thread 1 at barrier phase") {
			t.Errorf("panic %q, want a deadlock naming thread 0 finished and thread 1 at the barrier", p)
		}
	}()
	tm.ParallelSteps("odd", func(c *machine.CPU) bool {
		steps[c.ID]++
		return steps[c.ID] <= c.ID%2 // odd threads arrive once, even ones never
	})
	t.Error("mismatched barriers did not panic")
}

// TestParallelStepsRefusesRecorder: a recorded region must run on lanes.
func TestParallelStepsRefusesRecorder(t *testing.T) {
	tm := newTeam(t, 4)
	m := tm.Machine()
	m.SetRecorder(machine.NewRecorder(m, machine.NewStream()))
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, "recorder") {
			t.Errorf("panic %q, want one naming the recorder", p)
		}
	}()
	tm.ParallelSteps("rec", func(*machine.CPU) bool { return false })
	t.Error("ParallelSteps ran under a recorder")
}

// TestRecorderDeclinesUnreplayable: constructs whose timing depends on
// which member gets there first decline the recording by name.
func TestRecorderDeclinesUnreplayable(t *testing.T) {
	var e *EventSet
	for reason, body := range map[string]func(tr *Thread){
		"critical section": func(tr *Thread) {
			tr.Critical("c", func(c *machine.CPU) { c.Flops(1) })
		},
		"EventSet": func(tr *Thread) {
			if tr.ID == 0 {
				e.Post(tr, 0)
			} else {
				e.Wait(tr, 0, 0)
			}
		},
		"dynamic or guided schedule": func(tr *Thread) {
			tr.For(0, 64, Dynamic(4), func(c *machine.CPU, from, to int) { c.Flops(to - from) })
		},
	} {
		m := machine.MustNew(machine.DefaultConfig())
		rec := machine.NewRecorder(m, machine.NewStream())
		m.SetRecorder(rec)
		tm := MustTeam(m, 4)
		e = NewEventSet(tm, 1)
		tm.Parallel(body)
		if got := rec.Declined(); got != reason {
			t.Errorf("declined %q, want %q", got, reason)
		}
	}
}
