package exp

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"upmgo/internal/nas"
)

// TestRunnerParallelSerialEquivalence proves the acceptance invariant:
// for fixed SweepOptions, every figure/table returns bit-identical
// cells at -jobs 1 and -jobs 8. Run under -race in CI. Threads 1 makes
// each individual simulation exactly reproducible (the same contract as
// nas's bulk/scalar equivalence test), isolating the property under
// test: the host worker pool contributes no nondeterminism.
func TestRunnerParallelSerialEquivalence(t *testing.T) {
	ctx := context.Background()
	serial := Runner{Jobs: 1}
	parallel := Runner{Jobs: 8}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42, Threads: 1}

	s1, err := serial.Figure1(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := parallel.Figure1(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, p1) {
		t.Error("Figure1 cells differ between -jobs 1 and -jobs 8")
	}

	s4, err := serial.Figure4(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := parallel.Figure4(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s4, p4) {
		t.Error("Figure4 cells differ between -jobs 1 and -jobs 8")
	}

	st, err := serial.Table2(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := parallel.Table2(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, pt) {
		t.Error("Table2 rows differ between -jobs 1 and -jobs 8")
	}

	f5 := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42, Threads: 1}
	s5, err := serial.Figure5(ctx, f5)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := parallel.Figure5(ctx, f5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s5, p5) {
		t.Error("Figure5 cells differ between -jobs 1 and -jobs 8")
	}

	f6 := SweepOptions{Class: nas.ClassS, Seed: 42, Iterations: 3, Threads: 1}
	s6, err := serial.Figure6(ctx, f6)
	if err != nil {
		t.Fatal(err)
	}
	p6, err := parallel.Figure6(ctx, f6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s6, p6) {
		t.Error("Figure6 cells differ between -jobs 1 and -jobs 8")
	}
}

// TestRunnerCacheOverlap proves the -all memoization: Figure 1 after
// Figure 4 performs zero new simulations, and so does Table 2, whose
// four cells per benchmark are Figure 4's UPMlib cells.
func TestRunnerCacheOverlap(t *testing.T) {
	ctx := context.Background()
	cache := NewCache()
	r := Runner{Jobs: 4, Cache: cache}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}

	f4, err := r.Figure4(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 12 || st.Hits != 0 {
		t.Fatalf("after Figure4: %+v, want 12 misses, 0 hits", st)
	}

	f1, err := r.Figure1(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 12 {
		t.Errorf("Figure1 after Figure4 simulated %d new cells, want 0", st.Misses-12)
	}
	if st.Hits != 8 {
		t.Errorf("Figure1 after Figure4 hit %d cells, want 8", st.Hits)
	}

	if _, err := r.Table2(ctx, o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 12 {
		t.Errorf("Table2 after Figure4 simulated %d new cells, want 0", st.Misses-12)
	}

	// The recalled cells must be the very cells Figure 4 computed.
	f4ByLabel := map[string]Cell{}
	for _, c := range f4 {
		f4ByLabel[c.Label] = c
	}
	for _, c := range f1 {
		if !reflect.DeepEqual(c, f4ByLabel[c.Label]) {
			t.Errorf("cached cell %s differs from Figure4's", c.Label)
		}
	}

	// Figure 5 at native scale shares its ft-IRIX/ft-IRIXmig/ft-upmlib
	// cells with Figures 1/4; only ft-recrep is new.
	if _, err := r.Figure5(ctx, o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 13 {
		t.Errorf("Figure5 after Figure4 simulated %d new cells, want 1 (ft-recrep)", st.Misses-12)
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Runner{Jobs: 2}).Figure1(ctx, o); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}

	// Cancel mid-batch, from the progress callback after the first cell.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	r := Runner{Jobs: 1, OnEvent: func(ev Event) {
		if ev.Done {
			cancel()
		}
	}}
	if _, err := r.Figure1(ctx, o); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-batch cancellation returned %v, want context.Canceled", err)
	}
}

func TestRunnerProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	r := Runner{Jobs: 3, OnEvent: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	cells, err := r.Figure1(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*len(cells) {
		t.Fatalf("got %d events for %d cells, want one started + one finished each", len(events), len(cells))
	}
	started, finished := map[int]bool{}, map[int]bool{}
	for _, ev := range events {
		if ev.Total != len(cells) {
			t.Errorf("event Total = %d, want %d", ev.Total, len(cells))
		}
		if ev.Done {
			finished[ev.Index] = true
			if ev.Err != nil {
				t.Errorf("cell %d finished with error %v", ev.Index, ev.Err)
			}
			if ev.VirtualS <= 0 {
				t.Errorf("cell %d reported %v virtual seconds", ev.Index, ev.VirtualS)
			}
			if ev.Host < 0 {
				t.Errorf("cell %d reported negative host duration", ev.Index)
			}
		} else {
			started[ev.Index] = true
		}
	}
	for i := range cells {
		if !started[i] || !finished[i] {
			t.Errorf("cell %d missing started/finished events (%v/%v)", i, started[i], finished[i])
		}
	}
}

func TestRunnerUnknownBenchmarkSentinel(t *testing.T) {
	_, err := Runner{Jobs: 2}.Figure1(context.Background(), SweepOptions{Class: nas.ClassS, Benches: []string{"UA"}})
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark returned %v, want ErrUnknownBenchmark", err)
	}
}

// TestSweepMatchesWrappers pins the unified entry point to the named
// wrappers: Sweep(KindFigure6) and Figure6 must produce identical cells,
// and an unknown kind must fail with the sentinel before any simulation.
func TestSweepMatchesWrappers(t *testing.T) {
	// Threads 1: comparing two fresh runs needs exact reproducibility.
	o := SweepOptions{Class: nas.ClassS, Seed: 42, Iterations: 3, Threads: 1, Benches: []string{"BT"}}
	res, err := Sweep(SweepRequest{Kind: KindFigure6, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Figure6(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Figure5, direct) {
		t.Error("Sweep(KindFigure6) != Figure6 with the same options")
	}
	if res.Kind != KindFigure6 || res.Len() != len(direct) {
		t.Errorf("SweepResult kind/len = %s/%d, want %s/%d", res.Kind, res.Len(), KindFigure6, len(direct))
	}
	if _, err := Sweep(SweepRequest{Kind: "figure9", Options: o}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind returned %v, want ErrUnknownKind", err)
	}
	if _, err := SweepSpecs(SweepRequest{Kind: "figure9"}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("SweepSpecs with unknown kind returned %v, want ErrUnknownKind", err)
	}
}

// TestKindJSONRoundTrip: the enum validates on both marshal and
// unmarshal, so a bad "kind" fails at decode time.
func TestKindJSONRoundTrip(t *testing.T) {
	blob, err := json.Marshal(SweepRequest{Kind: KindTable2, Options: SweepOptions{Class: nas.ClassW, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	var req SweepRequest
	if err := json.Unmarshal(blob, &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindTable2 || req.Options.Class != nas.ClassW || req.Options.Seed != 7 {
		t.Errorf("round trip mangled the request: %+v", req)
	}
	if err := json.Unmarshal([]byte(`{"kind":"figure9"}`), &req); err == nil {
		t.Error("bad kind decoded without error")
	}
	if _, err := json.Marshal(SweepRequest{Kind: "nope"}); err == nil {
		t.Error("bad kind encoded without error")
	}
}

// TestCellSpecKeyCanonicalisation checks the overlap the cache depends
// on: Figure 1, Figure 4 and Figure 5 build their shared cells with
// syntactically different configs (ComputeScale 0 vs 1) that must
// collide on one key.
func TestCellSpecKeyCanonicalisation(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	keys := map[string]bool{}
	for _, s := range Figure4Specs(o) {
		k, ok := s.Key()
		if !ok {
			t.Fatalf("Figure4 spec %s not memoizable", s.Config.Label())
		}
		keys[k] = true
	}
	for _, s := range Figure1Specs(o) {
		if k, _ := s.Key(); !keys[k] {
			t.Errorf("Figure1 cell %s not covered by Figure4's keys", s.Config.Label())
		}
	}
	for _, s := range Table2Specs(o) {
		if k, _ := s.Key(); !keys[k] {
			t.Errorf("Table2 cell %s not covered by Figure4's keys", s.Config.Label())
		}
	}
	shared := 0
	for _, s := range Figure5Specs(o) {
		if k, _ := s.Key(); keys[k] {
			shared++
		}
	}
	if shared != 3 {
		t.Errorf("Figure5 shares %d cells with Figure4, want 3 (ft-IRIX, ft-IRIXmig, ft-upmlib)", shared)
	}
}

// TestRunnerJobsEquivalenceFullWidth: at the paper's full team width too,
// -jobs 1 and -jobs 4 return identical cells; each cell is bit-reproducible
// on its own, whatever else the host is running.
func TestRunnerJobsEquivalenceFullWidth(t *testing.T) {
	ctx := context.Background()
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT", "CG"}, Seed: 42}
	serial, err := Runner{Jobs: 1}.Figure4(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Jobs: 4}.Figure4(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("full-width Figure4 cells differ between -jobs 1 and -jobs 4")
	}
}
