package omp

import (
	"runtime"
	"testing"
	"time"

	"upmgo/internal/machine"
)

// A team that becomes unreachable stops its lanes: the coroutines hold no
// reference to the team between regions, so the crew finalizer runs.
func TestDroppedTeamStopsLanes(t *testing.T) {
	// Wait until the teams of earlier tests are gone too.
	goroutines := func() int {
		for range 5 {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	before := goroutines()
	func() {
		m := machine.MustNew(machine.DefaultConfig())
		for range 4 {
			tm := MustTeam(m, 16)
			tm.Parallel(func(tr *Thread) { tr.Barrier() })
		}
		if n := runtime.NumGoroutine(); n < before+64 {
			t.Fatalf("%d goroutines after starting 64 lanes, want at least %d", n, before+64)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for n := goroutines(); n > before; n = goroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain after dropping the teams, want %d", n, before)
		}
	}
}

// A resting team holds no lane, and its next region starts fresh ones
// and runs as a team that never rested does.
func TestRestStopsLanes(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	tm := MustTeam(m, 16)
	sum := func() float64 {
		var s float64
		tm.Parallel(func(tr *Thread) {
			tr.Barrier()
			if v := tr.ReduceSum(float64(tr.ID)); tr.ID == 0 {
				s = v
			}
		})
		return s
	}
	want := sum()
	before := runtime.NumGoroutine()
	tm.Rest()
	if n := runtime.NumGoroutine(); n > before-16 {
		t.Errorf("%d goroutines after Rest, want at most %d", n, before-16)
	}
	tm.Rest()
	if got := sum(); got != want {
		t.Errorf("region after Rest reduced to %v, want %v", got, want)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after the next region, want %d", n, before)
	}
}
