package exp

import (
	"bytes"
	"strings"
	"testing"

	"upmgo/internal/nas"
)

func TestTable1MatchesPaperValues(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Levels in order; latencies within a few ns of Table 1 (probe
	// includes the L1 probe cost on deeper levels).
	want := []struct {
		level string
		hops  int
		lo    float64
		hi    float64
	}{
		{"L1 cache", 0, 5, 6},
		{"L2 cache", 0, 56, 65},
		{"local memory", 0, 329, 340},
		{"remote memory", 1, 564, 575},
		{"remote memory", 2, 759, 770},
		{"remote memory", 3, 862, 875},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Level != w.level || r.Hops != w.hops {
			t.Errorf("row %d = %s/%d hops, want %s/%d", i, r.Level, r.Hops, w.level, w.hops)
		}
		if r.Nanosec < w.lo || r.Nanosec > w.hi {
			t.Errorf("row %d latency %.1f ns outside [%g,%g]", i, r.Nanosec, w.lo, w.hi)
		}
	}
}

func TestWriteTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"L1 cache", "remote memory", "Latency(ns)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1ShapeBT(t *testing.T) {
	res, err := sweep(Runner{}, KindFigure1, SweepOptions{Class: nas.ClassS, Benches: []string{"BT", "CG"}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 16 {
		t.Fatalf("got %d cells, want 16 (2 benchmarks x 4 placements x 2 engines)", len(res.Cells))
	}
	byLabel := map[string]float64{}
	for _, c := range res.Cells {
		byLabel[c.Bench+" "+c.Label] = c.Seconds()
	}
	// The paper's shape: worst-case placement is slower than first touch.
	for _, b := range []string{"BT", "CG"} {
		if ft, wc := byLabel[b+" ft-IRIX"], byLabel[b+" wc-IRIX"]; ft >= wc {
			t.Errorf("%s: ft (%.4f) not faster than wc (%.4f)", b, ft, wc)
		}
	}
	// Kernel migration must recover part of BT's worst case.
	if byLabel["BT wc-IRIXmig"] >= byLabel["BT wc-IRIX"] {
		t.Errorf("kernel migration did not improve wc: %.4f vs %.4f",
			byLabel["BT wc-IRIXmig"], byLabel["BT wc-IRIX"])
	}
}

func TestFigure4UPMlibRepairsWorstCase(t *testing.T) {
	res, err := sweep(Runner{}, KindFigure4, SweepOptions{Class: nas.ClassS, Benches: []string{"SP"}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Cells
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	byLabel := map[string]float64{}
	for _, c := range cells {
		byLabel[c.Label] = c.Seconds()
	}
	// At Class S only a handful of iterations amortise the one-time
	// migration burst, so the repair is partial; the Class W sweep in
	// EXPERIMENTS.md shows the paper-level ~15-20% residual.
	ft := byLabel["ft-IRIX"]
	if slow := byLabel["wc-upmlib"]/ft - 1; slow > 0.65 {
		t.Errorf("wc-upmlib still %.0f%% over ft; UPMlib should repair most of it", 100*slow)
	}
	if byLabel["wc-upmlib"] >= byLabel["wc-IRIX"] {
		t.Error("wc-upmlib not faster than plain wc")
	}
}

func TestTable2Shapes(t *testing.T) {
	res, err := sweep(Runner{}, KindTable2, SweepOptions{Class: nas.ClassS, Benches: []string{"BT", "MG"}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table2
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		for _, p := range []string{"rr", "rand", "wc"} {
			if v, ok := r.SlowdownTail[p]; !ok || v > 0.25 {
				t.Errorf("%s %s tail slowdown %v; steady state should be near ft", r.Bench, p, v)
			}
			if f := r.FirstIterFrac[p]; f < 0.5 || f > 1 {
				t.Errorf("%s %s first-iteration fraction %v outside [0.5,1]", r.Bench, p, f)
			}
		}
	}
}

func TestFigure5ShapesAndOverheadAccounting(t *testing.T) {
	res, err := sweep(Runner{}, KindFigure5, SweepOptions{Class: nas.ClassS, Seed: 42, Benches: []string{"BT"}})
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Figure5
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	var recrep, upmlib Figure5Cell
	for _, c := range cells {
		switch c.Label {
		case "ft-recrep":
			recrep = c
		case "ft-upmlib":
			upmlib = c
		}
	}
	if recrep.Migrations <= upmlib.Migrations {
		t.Error("record-replay did not add migrations")
	}
	if recrep.OverheadS <= upmlib.OverheadS {
		t.Error("record-replay overhead not larger than plain UPMlib's")
	}
	if recrep.PhaseS <= 0 {
		t.Error("phase time not recorded")
	}
}

func TestFigure6UsesScaledBT(t *testing.T) {
	res, err := sweep(Runner{}, KindFigure5, SweepOptions{Class: nas.ClassS, Seed: 42, Iterations: 3, Benches: []string{"BT"}})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Figure5
	res, err = sweep(Runner{}, KindFigure6, SweepOptions{Class: nas.ClassS, Seed: 42, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	scaled := res.Figure5
	if scaled[0].Bench != "BT" {
		t.Fatalf("Figure 6 ran %s, want BT", scaled[0].Bench)
	}
	if scaled[0].Seconds < 2*base[0].Seconds {
		t.Errorf("scaled BT (%.4fs) not clearly longer than native (%.4fs)",
			scaled[0].Seconds, base[0].Seconds)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	if _, err := sweep(Runner{}, KindFigure1, SweepOptions{Class: nas.ClassS, Benches: []string{"UA"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
