package ep

import (
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
	"upmgo/internal/vm"
)

func mkEP(t *testing.T) (*machine.Machine, *EP, *omp.Team) {
	t.Helper()
	mc := machine.DefaultConfig()
	nas.ClassS.MachineTweak(&mc)
	m := machine.MustNew(mc)
	e := New(m, nas.ClassS, 1, 9).(*EP)
	return m, e, omp.MustTeam(m, m.NumCPUs())
}

func TestVerifyAgainstHostReplay(t *testing.T) {
	_, e, team := mkEP(t)
	for i := 0; i < 3; i++ {
		e.Step(team, nil)
	}
	if e.Accepted() == 0 {
		t.Fatal("no pairs accepted")
	}
	if err := e.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestAcceptanceRateIsPiOver4ish(t *testing.T) {
	_, e, team := mkEP(t)
	e.Step(team, nil)
	rate := float64(e.Accepted()) / float64(e.pairs)
	if rate < 0.72 || rate > 0.84 { // pi/4 ~ 0.785
		t.Errorf("acceptance rate %.3f, want ~0.785", rate)
	}
}

func TestDriverEndToEnd(t *testing.T) {
	r, err := nas.Run(New, nas.Config{Class: nas.ClassS, Placement: vm.WorstCase, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("EP failed verification: %v", r.VerifyErr)
	}
}

// The control property: EP has (almost) no shared data, so even the
// worst-case placement must cost only a few percent.
func TestEPIsPlacementInsensitive(t *testing.T) {
	run := func(p vm.Policy) float64 {
		r, err := nas.Run(New, nas.Config{Class: nas.ClassS, Placement: p, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return r.Seconds()
	}
	ft, wc := run(vm.FirstTouch), run(vm.WorstCase)
	if slow := wc/ft - 1; slow > 0.05 {
		t.Errorf("EP wc slowdown %.1f%%, want < 5%% (embarrassingly parallel)", 100*slow)
	}
}
