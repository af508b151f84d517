package omp

import (
	"reflect"
	"testing"

	"upmgo/internal/machine"
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

// streamTeam runs a serial section on the master and then one region on
// an 8-thread team of a fresh machine with placement p: simulated when
// s is nil (recorded when rec is set), otherwise replayed from s.
func streamTeam(p vm.Policy, serial bool, rec bool, s *machine.Stream) (*machine.Machine, *machine.Recorder) {
	cfg := machine.DefaultConfig()
	cfg.Placement = p
	m := machine.MustNew(cfg)
	a := m.NewArray("a", 1<<14)
	var rd *machine.StreamReader
	if s != nil {
		rd = s.NewReader(m, nil)
	}
	var r *machine.Recorder
	if rec {
		r = machine.NewRecorder(m, machine.NewStream())
		m.SetRecorder(r)
	}
	tm := MustTeam(m, 8)
	tm.SetSerial(serial)
	body := streamRegion(a)
	if rd != nil {
		rd.Replay(tm.Master())
		body = func(tr *Thread) {
			for rd.Replay(tr.CPU) {
				tr.Barrier()
			}
		}
	} else {
		tm.Master().StoreRun(a.Addr(0), a.Len(), 8)
	}
	tm.ParallelNamed("work", body)
	return m, r
}

// TestRecorderReplaysTeam: a team's serial section, region, barriers
// and reduction, recorded under first touch, replay on a round-robin
// machine to the clocks and counters a simulation there reaches — in
// parallel and in serial mode.
func TestRecorderReplaysTeam(t *testing.T) {
	for _, serial := range []bool{false, true} {
		_, rec := streamTeam(vm.FirstTouch, serial, true, nil)
		s, err := rec.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := []machine.Op{{Kind: machine.OpSerial, CPU: 0}, {Kind: machine.OpRegion, Name: "work"}}
		if !reflect.DeepEqual(s.Ops(), want) {
			t.Errorf("serial=%v: ops %+v, want %+v", serial, s.Ops(), want)
		}
		sim, _ := streamTeam(vm.RoundRobin, serial, false, nil)
		rep, _ := streamTeam(vm.RoundRobin, serial, false, s)
		for i, c := range sim.CPUs() {
			if r := rep.CPU(i); r.Now() != c.Now() || r.Stat() != c.Stat() {
				t.Errorf("serial=%v cpu %d: replay clock %d stats %+v, simulation %d %+v",
					serial, i, r.Now(), r.Stat(), c.Now(), c.Stat())
			}
		}
	}
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
