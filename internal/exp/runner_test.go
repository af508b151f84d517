package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/trace"
)

// TestRunnerParallelSerialEquivalence proves the acceptance invariant:
// for fixed SweepOptions, every figure/table returns bit-identical
// cells at -jobs 1 and -jobs 8. Run under -race in CI. Each simulation
// is reproducible at the machine's full width (the omp runtime drives a
// team's threads in thread-id order), so the property under test is
// isolated: the host worker pool contributes no nondeterminism.
func TestRunnerParallelSerialEquivalence(t *testing.T) {
	ctx := context.Background()
	serial := Runner{Jobs: 1}
	parallel := Runner{Jobs: 8}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	for _, req := range []SweepRequest{
		{Kind: KindFigure1, Options: o},
		{Kind: KindFigure4, Options: o},
		{Kind: KindTable2, Options: o},
		{Kind: KindFigure5, Options: o},
		{Kind: KindFigure6, Options: SweepOptions{Class: nas.ClassS, Seed: 42, Iterations: 3}},
	} {
		s, err := serial.Sweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parallel.Sweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("%s results differ between -jobs 1 and -jobs 8", req.Kind)
		}
	}
}

// sweep runs one request of the given kind through r.
func sweep(r Runner, kind Kind, o SweepOptions) (SweepResult, error) {
	return r.Sweep(context.Background(), SweepRequest{Kind: kind, Options: o})
}

// TestRunnerCacheOverlap proves the -all memoization: Figure 1 after
// Figure 4 performs zero new simulations, and so does Table 2, whose
// four cells per benchmark are Figure 4's UPMlib cells.
func TestRunnerCacheOverlap(t *testing.T) {
	cache := NewCache()
	r := Runner{Jobs: 4, Cache: cache}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}

	f4, err := sweep(r, KindFigure4, o)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 12 || st.Hits != 0 {
		t.Fatalf("after Figure4: %+v, want 12 misses, 0 hits", st)
	}

	f1, err := sweep(r, KindFigure1, o)
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

	if _, err := sweep(r, KindTable2, o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 12 {
		t.Errorf("Table2 after Figure4 simulated %d new cells, want 0", st.Misses-12)
	}

	// The recalled cells must be the very cells Figure 4 computed.
	f4ByLabel := map[string]Cell{}
	for _, c := range f4.Cells {
		f4ByLabel[c.Label] = c
	}
	for _, c := range f1.Cells {
		if !reflect.DeepEqual(c, f4ByLabel[c.Label]) {
			t.Errorf("cached cell %s differs from Figure4's", c.Label)
		}
	}

	// Figure 5 at native scale shares its ft-IRIX/ft-IRIXmig/ft-upmlib
	// cells with Figures 1/4; only ft-recrep is new.
	if _, err := sweep(r, KindFigure5, o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 13 {
		t.Errorf("Figure5 after Figure4 simulated %d new cells, want 1 (ft-recrep)", st.Misses-12)
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	req := SweepRequest{Kind: KindFigure1, Options: SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Runner{Jobs: 2}).Sweep(ctx, req); !errors.Is(err, context.Canceled) {
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
	if _, err := r.Sweep(ctx, req); !errors.Is(err, context.Canceled) {
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
	res, err := sweep(r, KindFigure1, SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Cells
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
			if ev.Report.VirtualSeconds <= 0 {
				t.Errorf("cell %d reported %v virtual seconds", ev.Index, ev.Report.VirtualSeconds)
			}
			if ev.Report.HostSeconds < 0 {
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
	_, err := sweep(Runner{Jobs: 2}, KindFigure1, SweepOptions{Class: nas.ClassS, Benches: []string{"UA"}})
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark returned %v, want ErrUnknownBenchmark", err)
	}
}

// TestSweepMatchesWrappers pins the Figure 6 request to the Figure 5
// request it wraps — Figure 5's configurations on BT at Scale 4 — and
// checks that an unknown kind fails with the sentinel before any
// simulation.
func TestSweepMatchesWrappers(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Seed: 42, Iterations: 3, Benches: []string{"BT"}}
	res, err := sweep(Runner{}, KindFigure6, o)
	if err != nil {
		t.Fatal(err)
	}
	scaled := o
	scaled.Scale = 4
	direct, err := sweep(Runner{}, KindFigure5, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Figure5, direct.Figure5) {
		t.Error("Figure 6 != Figure 5 at Scale 4 with the same options")
	}
	if res.Kind != KindFigure6 || res.Len() != len(direct.Figure5) {
		t.Errorf("SweepResult kind/len = %s/%d, want %s/%d", res.Kind, res.Len(), KindFigure6, len(direct.Figure5))
	}
	if _, err := sweep(Runner{}, "figure9", o); !errors.Is(err, ErrUnknownKind) {
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
// -jobs 1 and -jobs 4 return identical cells and render the same figure
// bytes; each cell is bit-reproducible on its own, whatever else the host
// is running, and however far behind its recording it replayed.
func TestRunnerJobsEquivalenceFullWidth(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT", "CG"}, Seed: 42}
	serial, err := sweep(Runner{Jobs: 1}, KindFigure4, o)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep(Runner{Jobs: 4}, KindFigure4, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("full-width Figure4 cells differ between -jobs 1 and -jobs 4")
	}
	var a, b bytes.Buffer
	WriteCellsCSV(&a, serial.Cells)
	WriteCellsCSV(&b, parallel.Cells)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("Figure4 renders differently at -jobs 1:\n%s\nand at -jobs 4:\n%s", a.Bytes(), b.Bytes())
	}
}

// TestRunnerStartsRecordingsFirst: the feeder hands out each stream's
// first cell before every other cell, so no worker waits on one
// recording while another stream's cells are queued, and every first
// occurrence of a cell before its repeats, so no worker waits on an
// in-flight duplicate while unique work is queued. At Jobs 1 the start
// events follow dispatch order over Figure 1 + Figure 4 for BT and CG:
// BT's first cell, CG's, the rest of Figure 1, Figure 4's UPMlib cells,
// then Figure 4's repeats of Figure 1; the results keep presentation
// order.
func TestRunnerStartsRecordingsFirst(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT", "CG"}, Seed: 42}
	var started []int
	r := Runner{Jobs: 1, Cache: NewCache(), OnEvent: func(ev Event) {
		if !ev.Done {
			started = append(started, ev.Index)
		}
	}}
	res, err := r.Sweeps(context.Background(), []SweepRequest{{KindFigure1, o}, {KindFigure4, o}})
	if err != nil {
		t.Fatal(err)
	}
	f1 := len(Figure1Specs(o))
	want := []int{0, 8}
	for i := 1; i < f1; i++ {
		if i != 8 {
			want = append(want, i)
		}
	}
	var repeats []int
	for i := f1; i < f1+len(Figure4Specs(o)); i++ {
		if (i-f1)%3 == 2 { // upmlib: the third engine of each placement
			want = append(want, i)
		} else {
			repeats = append(repeats, i)
		}
	}
	want = append(want, repeats...)
	if !reflect.DeepEqual(started, want) {
		t.Errorf("cells started in order %v, want %v", started, want)
	}
	for k, specs := range [][]CellSpec{Figure1Specs(o), Figure4Specs(o)} {
		for i, c := range res[k].Cells {
			if c.Bench != specs[i].Bench || c.Label != specs[i].Config.Label() {
				t.Errorf("%s cell %d is %s %s, want %s %s", res[k].Kind, i, c.Bench, c.Label, specs[i].Bench, specs[i].Config.Label())
			}
		}
	}
}

// TestDispatchOrder: over every cell `sweep -all` runs at Class S, with a
// traced copy of the first cell put ahead of them, dispatch starts each
// stream's first memoizable cell, one per (bench, stream key), before
// everything else; then the other first occurrences of a memo key and
// the unmemoizable cells; then the repeats; each group in presentation
// order. The traced cell comes first yet never leads: it has no key.
func TestDispatchOrder(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Seed: 42}
	var specs []CellSpec
	for _, k := range Kinds {
		if k == KindTopoScale {
			continue
		}
		s, err := SweepSpecs(SweepRequest{Kind: k, Options: o})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s...)
	}
	traced := specs[0]
	traced.Config.Tracer = trace.NewRecorder()
	specs = append([]CellSpec{traced}, specs...)

	var leaders, firsts, repeats []int
	firstOfKey, firstOfStream := map[string]int{}, map[streamID]int{}
	for i, s := range specs {
		key, ok := s.Key()
		fp, _ := s.Config.StreamFingerprint()
		stream := streamID{s.Bench, fp}
		if !ok {
			firsts = append(firsts, i)
			continue
		}
		if _, seen := firstOfKey[key]; seen {
			repeats = append(repeats, i)
			continue
		}
		firstOfKey[key] = i
		if _, seen := firstOfStream[stream]; seen {
			firsts = append(firsts, i)
			continue
		}
		firstOfStream[stream] = i
		leaders = append(leaders, i)
	}
	if len(leaders) == 0 || len(repeats) == 0 || leaders[0] != 1 {
		t.Fatalf("leaders %v, %d repeats: the sweep should share streams and cells, and the traced cell 0 must not lead", leaders, len(repeats))
	}
	got := dispatchOrder(Runner{}.identify(specs))
	if want := slices.Concat(leaders, firsts, repeats); !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v\nwant %v", got, want)
	}
	// A traced runner memoizes nothing, so nothing leads and nothing
	// repeats: dispatch keeps presentation order.
	got = dispatchOrder(Runner{TraceDir: t.TempDir()}.identify(specs))
	for i, j := range got {
		if i != j {
			t.Fatalf("traced batch dispatches %v, want presentation order", got)
		}
	}
}

// TestRunnerSweepsOneBatch: Figure 1, Figure 4, Table 2 and Figure 5 for
// BT run as one batch record BT's miss stream once, replay the 13
// unique cells from it and recall the other 15, and shape each request's
// result exactly as its own Sweep would.
func TestRunnerSweepsOneBatch(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	var reqs []SweepRequest
	for _, k := range []Kind{KindFigure1, KindFigure4, KindTable2, KindFigure5} {
		reqs = append(reqs, SweepRequest{Kind: k, Options: o})
	}
	r := Runner{Jobs: 2, Cache: NewCache()}
	res, reports := sweepReports(t, r, reqs...)
	if n, want := countReports(reports), (reportCounts{simulated: 13, recalled: 15, replayed: 13, streams: 1}); n != want {
		t.Errorf("batch counts %+v, want %+v", n, want)
	}
	for i, req := range reqs {
		// Every cell is cached now: each request alone recalls it.
		alone, err := r.Sweep(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], alone) {
			t.Errorf("%s result from the batch differs from its own sweep", req.Kind)
		}
	}
}
