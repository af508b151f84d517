package exp

import (
	"context"
	"errors"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/lu"
	"upmgo/internal/store"
	"upmgo/internal/vm"
)

// TestBatchStreamSingleFlight: a batch's recording is single-flighted
// like a Cache's cell — a waiter whose context dies mid-recording is
// released with its context's error, a failed recording is not
// inherited, the next caller records afresh, and the batch holds what
// it recorded.
func TestBatchStreamSingleFlight(t *testing.T) {
	var streams flights[string, *nas.Stream]
	started, release := make(chan struct{}), make(chan struct{})
	errAborted := errors.New("recording aborted")
	leader := make(chan error)
	go func() {
		_, _, err := streams.do(context.Background(), "s", nil, func() (*nas.Stream, error) {
			close(started)
			<-release
			return nil, errAborted
		})
		leader <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if _, _, err := streams.do(ctx, "s", nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leader; !errors.Is(err, errAborted) {
		t.Errorf("leader returned %v, want its own error", err)
	}

	want := &nas.Stream{}
	got, _, err := streams.do(context.Background(), "s", nil, func() (*nas.Stream, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("retry got %p, %v; want its own recording", got, err)
	}
	if got, _, _ := streams.do(context.Background(), "s", nil, nil); got != want {
		t.Error("recorded stream not held")
	}
}

// TestRunnerDeclinedStreamRunsFromScratch: LU synchronises through an
// EventSet, so its recording declines. Every cell then runs from
// scratch, bit-identically to nas.Run, and every report names the
// reason and carries the cell's store address.
func TestRunnerDeclinedStreamRunsFromScratch(t *testing.T) {
	specs := Figure1Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"LU"}, Seed: 42})
	cache := NewCache()
	r := Runner{Jobs: 2, Cache: cache}
	reports := collectReports(t, r, specs)
	if n, want := countReports(reports), (reportCounts{simulated: len(specs), streams: 1}); n != want {
		t.Errorf("counts %+v, want %+v", n, want)
	}
	cells, err := r.Cells(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		scratch, err := run(spec.Bench, spec.Config)
		if err != nil {
			t.Fatal(err)
		}
		if d := nas.Diverge(scratch.Result, cells[i].Result); d != "" {
			t.Errorf("%s: cell diverges from nas.Run at %s", cells[i].Label, d)
		}
	}
	for i, rep := range reports {
		if rep.ReplayDeclined != "EventSet" {
			t.Errorf("%s: ReplayDeclined = %q, want EventSet", rep.Label, rep.ReplayDeclined)
		}
		if rep.Kind != FastPathFullSim {
			t.Errorf("%s: kind %q, want %q", rep.Label, rep.Kind, FastPathFullSim)
		}
		key, _ := specs[i].Key()
		if rep.Address != store.Address(key) {
			t.Errorf("%s: address %q, want %q", rep.Label, rep.Address, store.Address(key))
		}
	}
}

// TestRunnerFollowersDeclined: LU's recording declines at its first
// step, which it reaches only once every cell of the batch has started
// and the followers replay its initialisation behind it. Each follower
// then runs from scratch, bit-identically to nas.Run, and reports why.
func TestRunnerFollowersDeclined(t *testing.T) {
	specs := Figure1Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"LUHOLD"}, Seed: 42})
	started := make(chan struct{})
	holdBench(t, "LUHOLD", lu.New, 0, func() { <-started })
	n := 0
	var reports []*CellReport
	r := Runner{Jobs: 2, OnEvent: func(ev Event) {
		if ev.Done {
			reports = append(reports, ev.Report)
		} else if n++; n == len(specs) {
			close(started)
		}
	}}
	cells, err := r.Cells(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		scratch, err := run(spec.Bench, spec.Config)
		if err != nil {
			t.Fatal(err)
		}
		if d := nas.Diverge(scratch.Result, cells[i].Result); d != "" {
			t.Errorf("%s: cell diverges from nas.Run at %s", cells[i].Label, d)
		}
	}
	for _, rep := range reports {
		if rep.ReplayDeclined != "EventSet" || rep.Replayed {
			t.Errorf("%s: ReplayDeclined %q, replayed %v; want EventSet, not replayed", rep.Label, rep.ReplayDeclined, rep.Replayed)
		}
	}
}

// TestCellReportAddress: only memoizable cells have a store address.
func TestCellReportAddress(t *testing.T) {
	plain := CellSpec{Bench: "BT", Config: nas.Config{Class: nas.ClassS, Iterations: 2}}
	tweaked := plain
	tweaked.Config.Tweak = func(*machine.Config) {}
	reports := collectReports(t, Runner{Jobs: 1, Cache: NewCache()}, []CellSpec{plain, tweaked})
	key, _ := plain.Key()
	if reports[0].Address != store.Address(key) {
		t.Errorf("memoizable cell address %q, want %q", reports[0].Address, store.Address(key))
	}
	if reports[1].Address != "" {
		t.Errorf("tweaked cell has address %q, want none", reports[1].Address)
	}
}

// TestRunnerRecordingReported: the cell that leads a recording reports
// how it compressed and what its stream stores, the cells that replay it
// do not, and the sweep report lists it.
func TestRunnerRecordingReported(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Iterations: 12}
	wc := base
	wc.Placement = vm.WorstCase
	specs := []CellSpec{{Bench: "BT", Config: base}, {Bench: "BT", Config: wc}}
	reports := collectReports(t, Runner{Jobs: 1, Cache: NewCache()}, specs)
	rec := reports[0].Recording
	if rec == nil || rec.At == 0 || rec.Steps != 12 {
		t.Fatalf("leading cell's recording %+v, want a compressed 12-step recording", rec)
	}
	if reports[1].Recording != nil || reports[1].Stored != nil {
		t.Errorf("replayed cell reports a recording: %+v, stored %+v", reports[1].Recording, reports[1].Stored)
	}
	z := reports[0].Stored
	if z == nil || z.HeadBytes == 0 || z.BlockBytes == 0 || z.BlockBytes >= z.HeadBytes ||
		z.Repeat != rec.Steps-rec.At || z.DecodedBytes == 0 {
		t.Fatalf("leading cell's stored size %+v, want a head and a block repeated %d times", z, rec.Steps-rec.At)
	}
	if rec.Simulated() != rec.At {
		t.Errorf("recording simulated %d of 12 timed steps, want %d", rec.Simulated(), rec.At)
	}
	sr := BuildSweepReport(reports, 5)
	if len(sr.Recordings) != 1 || sr.Recordings[0].Label != "ft-IRIX" || sr.Recordings[0].Compression != *rec ||
		sr.Recordings[0].Stored != *z {
		t.Errorf("sweep report recordings %+v, want the ft-IRIX recording", sr.Recordings)
	}
}

// TestRunnerEveryCellReplays: in a plain Figure 4 sweep every cell
// replays the benchmark's stream, the canonical ft-IRIX cell included,
// following the recording. The cell that leads the recording charges
// the recording to its record stage; every cell charges its time parked
// at the frontier there too, and leaves it out of the stages it parked
// in, so no cell attributes more than its host time and the sweep
// attributes nearly all of it.
func TestRunnerEveryCellReplays(t *testing.T) {
	specs := Figure4Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42})
	reports := collectReports(t, Runner{Jobs: 1, Cache: NewCache()}, specs)
	var leader *CellReport
	for _, rep := range reports {
		if rep.Kind != FastPathReplayed {
			t.Errorf("%s: kind %q, want %q", rep.Label, rep.Kind, FastPathReplayed)
		}
		if rep.Recording != nil {
			leader = rep
		}
		// The stages and the host time are timed apart; allow for it.
		if sum := rep.Stages.Sum(); sum > rep.HostSeconds+1e-3 {
			t.Errorf("%s attributes %.6fs of %.6fs host time: %+v", rep.Label, sum, rep.HostSeconds, rep.Stages)
		}
	}
	if leader == nil {
		t.Fatal("no cell reports leading the recording")
	}
	if leader.Stages.Record <= 0 {
		t.Errorf("leader %s charges no record time: %+v", leader.Label, leader.Stages)
	}
	if a := BuildSweepReport(reports, 5).Attributed(); a < 0.9 {
		t.Errorf("sweep attributes %.1f%% of host time to stages, want at least 90%%", 100*a)
	}
}
