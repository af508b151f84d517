package nas_test

import (
	"reflect"
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/trace"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// runTraced runs one config with a fresh recorder attached and returns the
// result plus the recorder.
func runTraced(t *testing.T, build nas.Builder, cfg nas.Config) (nas.Result, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	res, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestTracingOffOnEquivalence is the tentpole invariant: attaching a tracer
// observes the simulation but never advances a clock, so a traced run's
// every number — virtual times, engine stats, hardware counters — is
// bit-identical to the same config untraced. The config turns on both
// migration engines and uses the worst-case placement so every emission
// path (faults, scans, UPM invocations, shootdowns, barriers, regions)
// actually fires during the comparison, at the full team width.
func TestTracingOffOnEquivalence(t *testing.T) {
	builders := []struct {
		name  string
		build nas.Builder
	}{
		{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New},
		{"MG", mg.New}, {"FT", ft.New},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			cfg := nas.Config{
				Class:     nas.ClassS,
				Placement: vm.WorstCase,
				KernelMig: true,
				UPM:       nas.UPMDistribute,
			}
			plain, err := nas.Run(b.build, cfg)
			if err != nil {
				t.Fatal(err)
			}
			traced, rec := runTraced(t, b.build, cfg)
			if rec.Len() == 0 {
				t.Fatal("traced run recorded no events")
			}
			if plain.TotalPS != traced.TotalPS {
				t.Errorf("TotalPS: untraced %d, traced %d", plain.TotalPS, traced.TotalPS)
			}
			if plain.ColdPS != traced.ColdPS {
				t.Errorf("ColdPS: untraced %d, traced %d", plain.ColdPS, traced.ColdPS)
			}
			if !reflect.DeepEqual(plain.IterPS, traced.IterPS) {
				t.Errorf("IterPS diverge:\n untraced %v\n traced   %v", plain.IterPS, traced.IterPS)
			}
			if !reflect.DeepEqual(plain.PhasePS, traced.PhasePS) {
				t.Errorf("PhasePS diverge:\n untraced %v\n traced   %v", plain.PhasePS, traced.PhasePS)
			}
			if plain.UPM != traced.UPM {
				t.Errorf("UPM stats diverge:\n untraced %+v\n traced   %+v", plain.UPM, traced.UPM)
			}
			if plain.KmigMoves != traced.KmigMoves || plain.KmigCost != traced.KmigCost {
				t.Errorf("kmig diverges: untraced %d/%d ps, traced %d/%d ps",
					plain.KmigMoves, plain.KmigCost, traced.KmigMoves, traced.KmigCost)
			}
			if plain.Mach != traced.Mach {
				t.Errorf("machine stats diverge:\n untraced %+v\n traced   %+v", plain.Mach, traced.Mach)
			}
			if plain.Verified != traced.Verified {
				t.Errorf("Verified: untraced %v, traced %v", plain.Verified, traced.Verified)
			}
		})
	}
}

// TestUPMDistributeProtocol asserts the paper's Figure 2 protocol against
// the event stream: under the worst-case initial placement the engine must
// move pages in the first timed iteration, keep being invoked only while
// it finds work, self-deactivate once the distribution is stable, and
// never act again after deactivating.
func TestUPMDistributeProtocol(t *testing.T) {
	// Full team width: with one thread every access comes from one node
	// and there is nothing to migrate. The assertions below are
	// structural properties of a single run (the protocol's shape), so
	// cross-run reproducibility is not needed.
	_, rec := runTraced(t, ft.New, nas.Config{
		Class:     nas.ClassS,
		Placement: vm.WorstCase,
		UPM:       nas.UPMDistribute,
	})
	s := trace.Summarize(rec.Events())
	if len(s.PerIter) == 0 {
		t.Fatal("no iterations traced")
	}
	if s.PerIter[0].UPMMoves == 0 {
		t.Error("UPMlib moved no pages in iteration 1 despite worst-case placement")
	}
	if s.UPMDeactivateIter == 0 {
		t.Fatalf("UPMlib never self-deactivated in %d iterations (%d invocations, %d moves)",
			s.Iterations, s.UPMInvocations, s.UPMMoves)
	}
	for _, it := range s.PerIter {
		if it.Step > s.UPMDeactivateIter && it.UPMMoves != 0 {
			t.Errorf("iteration %d: %d UPM moves after deactivation at iteration %d",
				it.Step, it.UPMMoves, s.UPMDeactivateIter)
		}
	}
	// The deactivating invocation is the one that found nothing: the last
	// invocation's move count must be zero, all earlier ones positive.
	var migrates []trace.Event
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvUPMMigrate {
			migrates = append(migrates, ev)
		}
	}
	if len(migrates) < 2 {
		t.Fatalf("want at least one productive invocation plus the deactivating one, got %d", len(migrates))
	}
	for i, ev := range migrates {
		last := i == len(migrates)-1
		if last && ev.Arg0 != 0 {
			t.Errorf("final invocation moved %d pages; deactivation requires zero", ev.Arg0)
		}
		if !last && ev.Arg0 == 0 {
			t.Errorf("invocation %d moved nothing but the engine was re-invoked", i+1)
		}
		if int64(len(ev.Pages)) != ev.Arg0 {
			t.Errorf("invocation %d: Arg0=%d but %d page moves listed", i+1, ev.Arg0, len(ev.Pages))
		}
	}
}

// TestRecordReplayProtocol asserts the Figure 3 contract: from iteration 3
// on, replay moves the top-n critical pages before z_solve and undo
// restores exactly those pages afterwards — the undo page set is the
// replay set reversed, and both respect the MaxCritical budget.
func TestRecordReplayProtocol(t *testing.T) {
	const maxCritical = 8
	// Full team width, as in TestUPMDistributeProtocol: the phase-change
	// plan is empty unless different nodes dominate different phases.
	_, rec := runTraced(t, bt.New, nas.Config{
		Class:      nas.ClassS,
		Placement:  vm.WorstCase,
		UPM:        nas.UPMRecRep,
		UPMOptions: upm.Options{MaxCritical: maxCritical},
	})
	events := rec.Events()

	type pair struct{ replay, undo *trace.Event }
	perIter := map[int]*pair{}
	step := 0
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.EvIterStart:
			step = int(ev.Arg0)
		case trace.EvIterEnd:
			step = 0
		case trace.EvUPMReplay:
			if step == 0 {
				t.Fatal("replay outside a timed iteration")
			}
			if perIter[step] == nil {
				perIter[step] = &pair{}
			}
			perIter[step].replay = ev
		case trace.EvUPMUndo:
			if step == 0 {
				t.Fatal("undo outside a timed iteration")
			}
			if perIter[step] == nil {
				perIter[step] = &pair{}
			}
			perIter[step].undo = ev
		}
	}
	if len(perIter) == 0 {
		t.Fatal("no replay/undo events traced")
	}
	totalReplayMoves := 0
	for step, p := range perIter {
		if p.replay == nil || p.undo == nil {
			t.Fatalf("iteration %d: replay and undo must come in pairs (replay=%v undo=%v)",
				step, p.replay != nil, p.undo != nil)
		}
		if step < 3 {
			t.Errorf("replay at iteration %d; the protocol starts replaying at 3", step)
		}
		if n := len(p.replay.Pages); n > maxCritical {
			t.Errorf("iteration %d: replay moved %d pages, budget is %d", step, n, maxCritical)
		}
		if len(p.undo.Pages) != len(p.replay.Pages) {
			t.Errorf("iteration %d: replay moved %d pages but undo moved %d",
				step, len(p.replay.Pages), len(p.undo.Pages))
			continue
		}
		// Undo must be the exact inverse page set: every replayed
		// vpn a→b comes back b→a.
		inverse := map[uint64][2]int{}
		for _, mv := range p.replay.Pages {
			inverse[mv.VPN] = [2]int{mv.To, mv.From}
		}
		for _, mv := range p.undo.Pages {
			want, ok := inverse[mv.VPN]
			if !ok {
				t.Errorf("iteration %d: undo moved vpn %d that replay never touched", step, mv.VPN)
				continue
			}
			if mv.From != want[0] || mv.To != want[1] {
				t.Errorf("iteration %d: vpn %d undone %d→%d, want inverse %d→%d",
					step, mv.VPN, mv.From, mv.To, want[0], want[1])
			}
		}
		totalReplayMoves += len(p.replay.Pages)
	}
	if totalReplayMoves == 0 {
		t.Error("record-replay never moved a page; the phase-change plan is empty")
	}
}

// TestTraceSumContract checks the accounting identity the summarizer
// promises: the trace's virtual-time totals reproduce the driver's own
// numbers exactly — per-phase spans plus serial gaps tile the timed loop,
// and per-iteration spans match Result.IterPS picosecond for picosecond.
func TestTraceSumContract(t *testing.T) {
	res, rec := runTraced(t, bt.New, nas.Config{
		Class:     nas.ClassS,
		Placement: vm.WorstCase,
		UPM:       nas.UPMDistribute,
	})
	s := trace.Summarize(rec.Events())
	if s.TotalPS != res.TotalPS {
		t.Errorf("Summary.TotalPS %d != Result.TotalPS %d", s.TotalPS, res.TotalPS)
	}
	var phasePS int64
	for _, p := range s.Phases {
		phasePS += p.TimePS
	}
	if phasePS+s.SerialPS != s.TotalPS {
		t.Errorf("phase spans %d + serial %d = %d, want TotalPS %d",
			phasePS, s.SerialPS, phasePS+s.SerialPS, s.TotalPS)
	}
	if s.SerialPS < 0 {
		t.Errorf("negative serial time %d: region spans overlap the loop boundaries", s.SerialPS)
	}
	if s.Iterations != len(res.IterPS) {
		t.Fatalf("summary has %d iterations, result %d", s.Iterations, len(res.IterPS))
	}
	for i, it := range s.PerIter {
		if it.TimePS != res.IterPS[i] {
			t.Errorf("iteration %d: trace %d ps, result %d ps", it.Step, it.TimePS, res.IterPS[i])
		}
	}
	var sum int64
	for _, it := range s.PerIter {
		sum += it.TimePS
	}
	if sum != s.TotalPS {
		t.Errorf("per-iteration spans sum to %d, want TotalPS %d", sum, s.TotalPS)
	}
}
