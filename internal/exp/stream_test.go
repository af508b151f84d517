package exp

import (
	"context"
	"errors"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/store"
)

// TestCacheStreamSingleFlight: a recording is single-flighted like a
// prefix — a waiter whose context dies mid-recording is released with
// its context's error, a failed recording is not inherited, and the next
// caller records afresh.
func TestCacheStreamSingleFlight(t *testing.T) {
	c := NewCache()
	started, release := make(chan struct{}), make(chan struct{})
	errAborted := errors.New("recording aborted")
	leader := make(chan error)
	go func() {
		_, err := c.stream(context.Background(), "s", func() (*nas.Stream, error) {
			close(started)
			<-release
			return nil, errAborted
		})
		leader <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if _, err := c.stream(ctx, "s", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leader; !errors.Is(err, errAborted) {
		t.Errorf("leader returned %v, want its own error", err)
	}

	want := &nas.Stream{}
	got, err := c.stream(context.Background(), "s", func() (*nas.Stream, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("retry got %p, %v; want its own recording", got, err)
	}
	if got, _ := c.stream(context.Background(), "s", nil); got != want {
		t.Error("recorded stream not held")
	}
	if st := c.Stats(); st.Streams != 2 {
		t.Errorf("Streams = %d, want 2 (the failed recording and the retry)", st.Streams)
	}
}

// TestRunnerDeclinedStreamRunsFromScratch: LU synchronises through an
// EventSet, so its recording declines. The recording still answers the
// ft-IRIX cell; the other cells run from scratch, bit-identically to a
// Runner without a Cache, and every report names the reason and carries
// the cell's store address.
func TestRunnerDeclinedStreamRunsFromScratch(t *testing.T) {
	specs := Figure1Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"LU"}, Seed: 42})
	cache := NewCache()
	r := Runner{Jobs: 2, Cache: cache}
	reports := collectReports(t, r, specs)
	if st := cache.Stats(); st.Streams != 1 || st.Replayed != 0 || st.Misses != uint64(len(specs)) {
		t.Errorf("stats %+v, want 1 stream, 0 replayed, %d misses", st, len(specs))
	}
	cells, err := r.Cells(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Runner{Jobs: 2}.Cells(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if d := nas.Diverge(scratch[i].Result, cells[i].Result); d != "" {
			t.Errorf("%s: cell diverges from scratch at %s", cells[i].Label, d)
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
