package exp

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/omp"
	"upmgo/internal/store"
)

// verdictKernel is BT with hooks on what only a recording's verdict task
// runs: the free-run Steps after the repeat, and Verify.
type verdictKernel struct {
	nas.Kernel
	m      *machine.Machine
	onFree func() // before each free-run Step
	verify func() error
}

func (k verdictKernel) Step(t *omp.Team, h *nas.Hooks) {
	if k.m.FreeRun() && k.onFree != nil {
		k.onFree()
	}
	k.Kernel.Step(t, h)
}

func (k verdictKernel) Verify() error {
	if k.verify != nil {
		return k.verify()
	}
	return k.Kernel.Verify()
}

// withBench registers build as benchmark name for the test's duration.
func withBench(t *testing.T, name string, build nas.Builder) {
	t.Helper()
	ExtensionBuilders[name] = build
	t.Cleanup(func() { delete(ExtensionBuilders, name) })
}

// verdictBench registers a BT whose verdict task calls onFree and verify.
func verdictBench(t *testing.T, name string, onFree func(), verify func() error) {
	withBench(t, name, func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return verdictKernel{Kernel: bt.New(m, class, scale, seed), m: m, onFree: onFree, verify: verify}
	})
}

// TestRunnerFailingVerdictFailsEveryReplay: BT's numerics fail Verify
// only once the recording has handed its stream over, so every cell
// replays before the verdict arrives. Each one that replayed must fail
// with that verdict, and none may reach the Cache or the store.
func TestRunnerFailingVerdictFailsEveryReplay(t *testing.T) {
	errBad := errors.New("numerics diverged")
	verdictBench(t, "BTBAD", nil, func() error { return errBad })
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	cache.SetStore(st)
	var mu sync.Mutex
	var done []Event
	r := Runner{Jobs: 2, Cache: cache, OnEvent: func(ev Event) {
		if ev.Done {
			mu.Lock()
			done = append(done, ev)
			mu.Unlock()
		}
	}}
	specs := Figure4Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"BTBAD"}, Iterations: 12, Seed: 42})
	if _, err := r.Cells(context.Background(), specs); !errors.Is(err, errBad) {
		t.Fatalf("batch returned %v, want the failing verdict", err)
	}
	replayed := 0
	for _, ev := range done {
		switch {
		case ev.Err == nil:
			t.Errorf("%s finished without error", ev.Report.Label)
		case ev.Report.Replayed:
			replayed++
			if !errors.Is(ev.Err, errBad) {
				t.Errorf("%s replayed and failed with %v, want the verdict", ev.Report.Label, ev.Err)
			}
		}
	}
	if replayed == 0 {
		t.Error("no cell replayed before the verdict")
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("cache holds %d cells of a failed stream", n)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("store holds %d records (%v) of a failed stream", n, err)
	}
	if s := cache.Stats(); s.StorePuts != 0 {
		t.Errorf("%d cells persisted", s.StorePuts)
	}
}

// TestRunnerReplaysBeforeVerdict: no wait holds a slot. At Jobs 1 the
// leading cell parks at the recording's frontier and gives its slot to
// the stream task, and every replay waits for the verdict without it, so
// the batch completes with every cell verified. At Jobs 2 cells start
// replaying behind the recording, before its verdict has arrived.
func TestRunnerReplaysBeforeVerdict(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		var judged atomic.Bool
		verdictBench(t, "BTSEEN", nil, func() error {
			judged.Store(true)
			return nil
		})
		early := 0
		r := Runner{Jobs: jobs, OnEvent: func(ev Event) {
			if !ev.Done && ev.Index > 0 && !judged.Load() {
				early++
			}
		}}
		specs := Figure4Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"BTSEEN"}, Iterations: 12, Seed: 42})
		// A cell that kept its slot while it waited would leave none for
		// the stream task: the batch would never end.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cells, err := r.Cells(ctx, specs)
		if err != nil {
			t.Fatalf("jobs %d: %v", jobs, err)
		}
		if !judged.Load() {
			t.Fatalf("jobs %d: the recording's verdict task never ran", jobs)
		}
		if jobs > 1 && early == 0 {
			t.Errorf("jobs %d: no cell started before the verdict arrived", jobs)
		}
		for _, c := range cells {
			if !c.Result.Verified {
				t.Errorf("jobs %d: %s not verified", jobs, c.Label)
			}
		}
	}
}

// TestRunnerCancelAwaitingVerdict: cancelling the batch while its cells
// wait on a slow verdict task returns ctx.Err() promptly — the task
// stops at its next step — and leaves no goroutine behind. A team's
// member coroutines stop once the team is collected, so the count is
// taken after garbage collection.
func TestRunnerCancelAwaitingVerdict(t *testing.T) {
	var once sync.Once
	tail := make(chan struct{})
	verdictBench(t, "BTSLOW", func() {
		once.Do(func() { close(tail) })
		time.Sleep(20 * time.Millisecond)
	}, nil)
	runtime.GC()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := Figure4Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"BTSLOW"}, Iterations: 100, Seed: 42})
	errc := make(chan error)
	go func() {
		_, err := Runner{Jobs: 2}.Cells(ctx, specs)
		errc <- err
	}()
	<-tail
	cancel()
	t0 := time.Now()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled batch returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled batch still running after 1s; its verdict task takes about 2s")
	}
	t.Logf("returned %v after cancel", time.Since(t0))
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the batch, %d before", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// holdBench registers build as benchmark name, wrapped so that its
// recording calls hold at the start of its Step call at (call 0 is the
// cold start).
func holdBench(t *testing.T, name string, build nas.Builder, at int, hold func()) {
	withBench(t, name, func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return &holdKernel{Kernel: build(m, class, scale, seed), at: at, hold: hold}
	})
}

type holdKernel struct {
	nas.Kernel
	calls, at int
	hold      func()
}

func (k *holdKernel) Step(t *omp.Team, h *nas.Hooks) {
	if k.calls == k.at {
		k.hold()
	}
	k.calls++
	k.Kernel.Step(t, h)
}

// TestRunnerCancelParkedFollowers: cancelling the batch while its cells
// are parked at the frontier of a recording returns ctx.Err() promptly —
// the parked cells give up, the recording stops before its next step —
// and leaves no goroutine behind. A team's member coroutines stop once
// the team is collected, so the count is taken after garbage collection.
func TestRunnerCancelParkedFollowers(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	holdBench(t, "BTHOLD", bt.New, 2, func() {
		held <- struct{}{}
		<-release
	})
	runtime.GC()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := Figure4Specs(SweepOptions{Class: nas.ClassS, Benches: []string{"BTHOLD"}, Iterations: 12, Seed: 42})
	errc := make(chan error)
	go func() {
		_, err := Runner{Jobs: 2}.Cells(ctx, specs)
		errc <- err
	}()
	<-held
	cancel()
	close(release)
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled batch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch still running after 5s")
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the batch, %d before", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}
