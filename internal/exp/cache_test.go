package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"upmgo/internal/nas"
	"upmgo/internal/vm"
)

// TestCacheWaiterRetriesAfterLeaderFailure regression-tests the
// cancel-then-retry bug: a waiter that joined an in-flight simulation used
// to inherit the leader's error permanently, so when the leader's caller
// was cancelled mid-flight, every coalesced caller of that key failed for
// the rest of the batch even though the key had never actually been tried
// on their behalf. A surviving waiter must retry (becoming the new leader)
// and succeed.
func TestCacheWaiterRetriesAfterLeaderFailure(t *testing.T) {
	c := NewCache()
	leaderStarted := make(chan struct{})
	releaseLeader := make(chan struct{})
	errAborted := errors.New("leader aborted")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.cell(context.Background(), "k", nil, func() (Cell, error) {
			close(leaderStarted)
			<-releaseLeader
			return Cell{}, errAborted
		}, &CellReport{})
		if !errors.Is(err, errAborted) {
			t.Errorf("leader returned %v, want its own error", err)
		}
	}()
	<-leaderStarted

	waiterDone := make(chan struct{})
	var got Cell
	var werr error
	rep := &CellReport{}
	go func() {
		defer close(waiterDone)
		got, werr = c.cell(context.Background(), "k", nil, func() (Cell, error) {
			return Cell{Bench: "BT"}, nil
		}, rep)
	}()
	// Give the waiter time to join the doomed flight; if it has not
	// joined yet it simply becomes the leader after the failure, which
	// must produce the same outcome.
	time.Sleep(10 * time.Millisecond)
	close(releaseLeader)
	<-waiterDone
	wg.Wait()

	if werr != nil {
		t.Fatalf("waiter inherited the leader's failure: %v", werr)
	}
	if got.Bench != "BT" {
		t.Errorf("waiter got %+v, want its retry's cell", got)
	}
	if rep.Source != SourceSimulated {
		t.Errorf("waiter's retry ran its own simulation; source %q misreports it", rep.Source)
	}
	rep = &CellReport{}
	if _, err := c.cell(context.Background(), "k", nil, nil, rep); err != nil || rep.Source != SourceMemory {
		t.Errorf("retried cell not cached: source %q, err %v", rep.Source, err)
	}
}

// TestCacheWaiterHonoursOwnCancellation: a waiter whose own context dies
// mid-flight stops waiting and reports its context's error.
func TestCacheWaiterHonoursOwnCancellation(t *testing.T) {
	c := NewCache()
	leaderStarted := make(chan struct{})
	releaseLeader := make(chan struct{})
	defer close(releaseLeader)

	go c.cell(context.Background(), "k", nil, func() (Cell, error) {
		close(leaderStarted)
		<-releaseLeader
		return Cell{Bench: "BT"}, nil
	}, &CellReport{})
	<-leaderStarted

	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if _, err := c.cell(ctx, "k", nil, nil, &CellReport{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
}

// TestCacheCancelledCallerNeverSimulates: a caller whose context is
// already dead must not start a simulation nobody will consume.
func TestCacheCancelledCallerNeverSimulates(t *testing.T) {
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := c.cell(ctx, "k", nil, func() (Cell, error) { ran = true; return Cell{}, nil }, &CellReport{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Error("cancelled caller still ran its simulation")
	}
}

// TestRunnerTraceDir checks the trace side-channel: every cell of a
// traced batch writes a Chrome trace whose per-iteration spans (using the
// exact args.ps picoseconds) sum to the cell's reported execution time,
// plus a text summary — and traced cells bypass the memoization cache
// entirely, though its Misses still counts them.
func TestRunnerTraceDir(t *testing.T) {
	dir := t.TempDir()
	cache := NewCache()
	r := Runner{Jobs: 2, Cache: cache, TraceDir: dir}
	specs := []CellSpec{
		{Bench: "BT", Config: nas.Config{Class: nas.ClassS}},
		{Bench: "BT", Config: nas.Config{Class: nas.ClassS, Placement: vm.WorstCase, UPM: nas.UPMDistribute}},
	}
	cells, err := r.Cells(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	// Each traced cell is a fresh from-scratch simulation: counted as a
	// miss, never memoized, never replayed.
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2 || cache.Len() != 0 {
		t.Errorf("traced cells must bypass the cache and count as 2 misses, saw %+v (%d held)", st, cache.Len())
	}
	for i, spec := range specs {
		base := fmt.Sprintf("bt-%s-classS", spec.Config.Label())
		blob, err := os.ReadFile(filepath.Join(dir, base+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &tr); err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		var sum, open int64
		for _, ev := range tr.TraceEvents {
			if ev.Name != "iteration" {
				continue
			}
			ps, ok := ev.Args["ps"].(float64)
			if !ok {
				t.Fatalf("%s: iteration %s record lacks args.ps", base, ev.Ph)
			}
			switch ev.Ph {
			case "B":
				open = int64(ps)
			case "E":
				sum += int64(ps) - open
			}
		}
		if sum != cells[i].Result.TotalPS {
			t.Errorf("%s: iteration spans sum to %d ps, cell reports %d ps",
				base, sum, cells[i].Result.TotalPS)
		}
		txt, err := os.ReadFile(filepath.Join(dir, base+".summary.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(txt), "phase breakdown") {
			t.Errorf("%s: summary lacks the phase breakdown", base)
		}
	}
}
