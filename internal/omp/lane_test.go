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
