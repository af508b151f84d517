package nas_test

import (
	"errors"
	"testing"

	"upmgo/internal/nas"
)

// TestDiverge: the probe names the first differing field by path, in
// declaration order, and "" for equal Results.
func TestDiverge(t *testing.T) {
	base := func() nas.Result {
		return nas.Result{Kernel: "BT", IterPS: []int64{1, 2, 3, 4}, PhasePS: []int64{5}}
	}
	for _, c := range []struct {
		want string
		edit func(r *nas.Result)
	}{
		{"", func(r *nas.Result) {}},
		{"IterPS[3]", func(r *nas.Result) { r.IterPS[3]++ }},
		{"len(PhasePS)", func(r *nas.Result) { r.PhasePS = nil }},
		{"Mach.TLBMiss", func(r *nas.Result) { r.Mach.TLBMiss = 9 }},
		{"UPM.OverheadPS", func(r *nas.Result) { r.UPM.OverheadPS = 1 }},
		{"TotalPS", func(r *nas.Result) { r.TotalPS, r.Mach.Faults = 1, 1 }},
		{"VerifyErr", func(r *nas.Result) { r.VerifyErr = errors.New("x") }},
	} {
		got := base()
		c.edit(&got)
		if d := nas.Diverge(base(), got); d != c.want {
			t.Errorf("Diverge = %q, want %q", d, c.want)
		}
	}
	a, b := base(), base()
	a.VerifyErr, b.VerifyErr = errors.New("zeta"), errors.New("eta")
	if d := nas.Diverge(a, b); d != "VerifyErr.s" {
		t.Errorf("differing error texts: Diverge = %q, want VerifyErr.s", d)
	}
}
