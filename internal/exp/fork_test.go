package exp

import (
	"context"
	"reflect"
	"testing"

	"upmgo/internal/nas"
)

// sweepReports runs reqs through r as one batch and returns the results
// with every finished cell's report, in completion order.
func sweepReports(t *testing.T, r Runner, reqs ...SweepRequest) ([]SweepResult, []*CellReport) {
	t.Helper()
	var reports []*CellReport
	r.OnEvent = func(ev Event) {
		if ev.Done {
			reports = append(reports, ev.Report)
		}
	}
	res, err := r.Sweeps(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res, reports
}

// reportCounts tallies reports as cmd/sweep's summary does.
type reportCounts struct{ simulated, recalled, replayed, streams int }

func countReports(reports []*CellReport) reportCounts {
	var n reportCounts
	for _, rep := range reports {
		if rep.Source == SourceSimulated {
			n.simulated++
		} else {
			n.recalled++
		}
		if rep.Replayed {
			n.replayed++
		}
		if rep.Recording != nil {
			n.streams++
		}
	}
	return n
}

// TestRunnerStreamSharing pins the replay economics of one batch: the
// 12 Figure 4 cells of one benchmark (4 placements × 3 engines) and
// Figure 5's novel recrep cell share one L2-miss stream, which all 13
// replay, the ft-IRIX cell it was recorded from included; Figure 5's
// other three cells are Figure 4's, recalled.
func TestRunnerStreamSharing(t *testing.T) {
	cache := NewCache()
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	_, reports := sweepReports(t, Runner{Jobs: 4, Cache: cache},
		SweepRequest{Kind: KindFigure4, Options: o}, SweepRequest{Kind: KindFigure5, Options: o})
	want := reportCounts{simulated: 13, recalled: 3, replayed: 13, streams: 1}
	if n := countReports(reports); n != want {
		t.Errorf("Figure 4 + Figure 5 batch counts %+v, want %+v", n, want)
	}
	if st := cache.Stats(); st.Misses != 13 || st.Hits != 3 {
		t.Errorf("cache stats %+v, want 13 misses, 3 hits", st)
	}
}

// TestRunnerStreamsPerBatch pins the scope of a recording: it belongs to
// the batch that made it. A second batch on the same Cache recalls the
// cells the first simulated, but its one novel cell (Figure 5's recrep)
// records the stream again.
func TestRunnerStreamsPerBatch(t *testing.T) {
	r := Runner{Jobs: 2, Cache: NewCache()}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	for _, tc := range []struct {
		kind Kind
		want reportCounts
	}{
		{KindFigure4, reportCounts{simulated: 12, replayed: 12, streams: 1}},
		{KindFigure5, reportCounts{simulated: 1, recalled: 3, replayed: 1, streams: 1}},
	} {
		_, reports := sweepReports(t, r, SweepRequest{Kind: tc.kind, Options: o})
		if n := countReports(reports); n != tc.want {
			t.Errorf("%s batch counts %+v, want %+v", tc.kind, n, tc.want)
		}
	}
}

// TestRunnerSteadyStreamSharing pins the economics of steady cells: a
// steady Figure 4 batch records the one stream and replays all 12 cells
// from it, as a plain batch does. A later Figure 1 batch recalls every
// cell and so records nothing.
func TestRunnerSteadyStreamSharing(t *testing.T) {
	r := Runner{Jobs: 4, Cache: NewCache()}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42, Steady: true, Extrapolate: true}
	_, reports := sweepReports(t, r, SweepRequest{Kind: KindFigure4, Options: o})
	if n, want := countReports(reports), (reportCounts{simulated: 12, replayed: 12, streams: 1}); n != want {
		t.Errorf("Figure 4 counts %+v, want %+v", n, want)
	}
	_, reports = sweepReports(t, r, SweepRequest{Kind: KindFigure1, Options: o})
	if n, want := countReports(reports), (reportCounts{recalled: 8}); n != want {
		t.Errorf("Figure 1 after Figure 4 counts %+v, want %+v", n, want)
	}
}

// TestRunnerForkScratchEquivalence is the exp-layer acceptance
// invariant: at the paper's full team width, every cell of a sweep,
// plain or steady, replays one shared miss stream, with a Cache or
// without one, and is bit-identical to the same cell simulated from
// scratch by nas.Run.
func TestRunnerForkScratchEquivalence(t *testing.T) {
	for _, steady := range []bool{false, true} {
		o := SweepOptions{Class: nas.ClassS, Benches: []string{"CG"}, Seed: 42, Steady: steady, Extrapolate: steady}
		specs := Figure4Specs(o)
		scratch := make([]Cell, len(specs))
		for i, spec := range specs {
			c, err := run(spec.Bench, spec.Config)
			if err != nil {
				t.Fatal(err)
			}
			scratch[i] = c
		}
		for _, r := range []Runner{{Jobs: 4, Cache: NewCache()}, {Jobs: 4}} {
			res, reports := sweepReports(t, r, SweepRequest{Kind: KindFigure4, Options: o})
			cells := res[0].Cells
			for i := range cells {
				if d := nas.Diverge(scratch[i].Result, cells[i].Result); d != "" {
					t.Errorf("steady=%v cache=%v %s: replayed cell diverges from nas.Run at %s",
						steady, r.Cache != nil, cells[i].Label, d)
				}
			}
			if !reflect.DeepEqual(cells, scratch) {
				t.Errorf("steady=%v cache=%v: Figure 4 cells differ from nas.Run's", steady, r.Cache != nil)
			}
			if n := countReports(reports); n.replayed != len(specs) || n.streams != 1 {
				t.Errorf("steady=%v cache=%v: %d of %d cells replayed from %d streams, want all from 1",
					steady, r.Cache != nil, n.replayed, len(specs), n.streams)
			}
		}
	}
}
