package exp

import (
	"context"
	"testing"

	"upmgo/internal/nas"
)

// TestFigure4BTSteadyPoints pins where the steady-state detector fires on
// the BT Class W Figure 4 grid at 15 iterations, the grid the benchmark's
// steady workloads run, at one thread and at the paper's 16: each cell's
// SteadyAt and ExtrapolatedIters ({0, 0} when no orbit is proven). A
// change to the detector that moves any detection point fails here.
func TestFigure4BTSteadyPoints(t *testing.T) {
	want := map[int]map[string][2]int{
		1: {
			"ft-IRIX": {4, 11}, "ft-IRIXmig": {4, 11}, "ft-upmlib": {4, 11},
			"rr-IRIX": {4, 11}, "rr-IRIXmig": {0, 0}, "rr-upmlib": {5, 10},
			"rand-IRIX": {4, 11}, "rand-IRIXmig": {0, 0}, "rand-upmlib": {5, 10},
			"wc-IRIX": {4, 11}, "wc-IRIXmig": {4, 11}, "wc-upmlib": {4, 11},
		},
		16: {
			"ft-IRIX": {4, 11}, "ft-IRIXmig": {5, 10}, "ft-upmlib": {6, 9},
			"rr-IRIX": {4, 11}, "rr-IRIXmig": {0, 0}, "rr-upmlib": {6, 9},
			"rand-IRIX": {4, 11}, "rand-IRIXmig": {0, 0}, "rand-upmlib": {6, 9},
			"wc-IRIX": {4, 11}, "wc-IRIXmig": {0, 0}, "wc-upmlib": {6, 9},
		},
	}
	for _, threads := range []int{1, 16} {
		specs := Figure4Specs(SweepOptions{Class: nas.ClassW, Benches: []string{"BT"}, Seed: 42,
			Iterations: 15, Threads: threads, Steady: true, Extrapolate: true})
		cells, err := Runner{Jobs: 2}.Cells(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(want[threads]) {
			t.Fatalf("threads %d: %d cells, want %d", threads, len(cells), len(want[threads]))
		}
		for _, c := range cells {
			got := [2]int{c.Result.SteadyAt, c.Result.ExtrapolatedIters}
			if w, ok := want[threads][c.Label]; !ok || got != w {
				t.Errorf("threads %d %s: SteadyAt, ExtrapolatedIters = %v, want %v", threads, c.Label, got, w)
			}
		}
	}
}
