// Integration tests of the public facade: everything a downstream user
// does — building machines, running OpenMP-style loops, attaching both
// migration engines, running the NAS reproductions — through the exported
// API only.
package upmgo_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"upmgo"
)

func TestPublicMachineAndTeam(t *testing.T) {
	m, err := upmgo.NewMachine(upmgo.DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCPUs() != 16 {
		t.Errorf("NumCPUs = %d, want 16", m.NumCPUs())
	}
	a := m.NewArray("a", 4096)
	team, err := upmgo.NewTeam(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	team.Parallel(func(tr *upmgo.Thread) {
		tr.For(0, a.Len(), upmgo.StaticSchedule(), func(c *upmgo.CPU, from, to int) {
			for i := from; i < to; i++ {
				a.Set(c, i, float64(i))
			}
		})
	})
	if a.Data()[100] != 100 {
		t.Errorf("a[100] = %v, want 100", a.Data()[100])
	}
	if team.Master().Now() <= 0 {
		t.Error("virtual time did not advance")
	}
}

func TestPublicUPMEngine(t *testing.T) {
	cfg := upmgo.DefaultMachineConfig()
	cfg.Placement = upmgo.WorstCase
	m, err := upmgo.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.NewArray("a", 16*2048)
	lo, hi := a.PageRange()
	for p := lo; p < hi; p++ {
		m.PT.Resolve(p, 0)
	}
	u := upmgo.NewUPM(m, upmgo.UPMOptions{})
	u.MemRefCnt(lo, hi)
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 3, 1)
	}
	if n := u.MigrateMemory(m.CPU(0)); n != 1 {
		t.Errorf("MigrateMemory moved %d pages, want 1", n)
	}
	if m.PT.Home(lo) != 3 {
		t.Errorf("page homed on %d, want 3", m.PT.Home(lo))
	}
}

func TestPublicKernelEngine(t *testing.T) {
	m, err := upmgo.NewMachine(upmgo.DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := upmgo.AttachKernelMigration(m, upmgo.KernelMigConfig{Threshold: 8})
	if !e.Enabled() {
		t.Error("engine not enabled after attach")
	}
	a := m.NewArray("a", 2048)
	lo, _ := a.PageRange()
	m.PT.Resolve(lo, 0)
	for i := 0; i < 100; i++ {
		m.PT.CountMissN(lo, 6, 1)
	}
	m.Settle(m.CPUs()[:1], 0)
	if e.Migrations() != 1 {
		t.Errorf("kernel engine migrated %d pages, want 1", e.Migrations())
	}
}

func TestPublicRunNASAllBenchmarks(t *testing.T) {
	for _, name := range upmgo.NASBenchmarks {
		r, err := upmgo.RunNAS(name, upmgo.NASConfig{Class: upmgo.ClassS, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Verified {
			t.Errorf("%s failed verification: %v", name, r.VerifyErr)
		}
		if r.Kernel != name {
			t.Errorf("result kernel %q, want %q", r.Kernel, name)
		}
	}
}

func TestPublicRunNASUnknownName(t *testing.T) {
	_, err := upmgo.RunNAS("UA", upmgo.NASConfig{})
	if err == nil || !strings.Contains(err.Error(), "UA") {
		t.Errorf("unknown benchmark error = %v", err)
	}
	if !errors.Is(err, upmgo.ErrUnknownBenchmark) {
		t.Errorf("RunNAS error %v does not wrap ErrUnknownBenchmark", err)
	}
	_, err = upmgo.SweepRunner{}.Sweep(context.Background(), upmgo.SweepRequest{Kind: upmgo.KindFigure1,
		Options: upmgo.SweepOptions{Class: upmgo.ClassS, Benches: []string{"UA"}}})
	if !errors.Is(err, upmgo.ErrUnknownBenchmark) {
		t.Errorf("Figure1 sweep error %v does not wrap ErrUnknownBenchmark", err)
	}
}

func TestPublicSweepRunnerWithCache(t *testing.T) {
	cache := upmgo.NewSweepCache()
	r := upmgo.SweepRunner{Jobs: 2, Cache: cache}
	req := upmgo.SweepRequest{Kind: upmgo.KindFigure1,
		Options: upmgo.SweepOptions{Class: upmgo.ClassS, Benches: []string{"BT"}, Seed: 42}}
	first, err := r.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(first.Cells))
	}
	if st := cache.Stats(); st.Misses != 8 || st.Hits != 0 {
		t.Errorf("first sweep stats %+v, want 8 misses", st)
	}
	again, err := r.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 8 || st.Hits != 8 {
		t.Errorf("second sweep stats %+v, want 8 misses, 8 hits", st)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached sweep differs from the original")
	}
}

// TestPublicMetrics drives the whole observability surface through the
// facade: sample a NAS run, export the series, publish to a registry,
// scrape it over HTTP, and render the locality table from sweep cells.
func TestPublicMetrics(t *testing.T) {
	reg := upmgo.NewMetricsRegistry()
	s := upmgo.NewMetricsSampler(upmgo.MetricsOptions{Heatmap: true, Registry: reg, Cell: "cg-wc"})
	res, err := upmgo.RunNAS("CG", upmgo.NASConfig{
		Class:     upmgo.ClassS,
		Placement: upmgo.WorstCase,
		UPM:       upmgo.UPMDistribute,
		Metrics:   s,
	})
	if err != nil {
		t.Fatal(err)
	}
	se := s.Series()
	var iters int
	for _, sm := range se.Samples {
		if sm.Kind == "iter" {
			iters++
		}
	}
	if iters != len(res.IterPS) || len(se.Heat) != iters {
		t.Fatalf("series has %d iteration samples and %d heatmaps, want %d of each",
			iters, len(se.Heat), len(res.IterPS))
	}
	var buf bytes.Buffer
	if err := se.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := upmgo.ReadMetricsSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(se, back) {
		t.Error("series JSON roundtrip not lossless through the facade")
	}

	srv := httptest.NewServer(upmgo.MetricsHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `upmgo_page_residency{cell="cg-wc",node="0"}`) {
		t.Errorf("/metrics lacks the published residency:\n%s", body)
	}

	fig1, err := upmgo.SweepRunner{Jobs: 2}.Sweep(context.Background(), upmgo.SweepRequest{Kind: upmgo.KindFigure1,
		Options: upmgo.SweepOptions{Class: upmgo.ClassS, Benches: []string{"CG"}, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := upmgo.WriteLocalityTable(&buf, fig1.Cells); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| Bench | Placement |", "| CG | wc |", "IRIXmig", ":1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("locality table lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestPublicSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := upmgo.SweepRunner{Jobs: 2}
	_, err := r.Sweep(ctx, upmgo.SweepRequest{Kind: upmgo.KindFigure1,
		Options: upmgo.SweepOptions{Class: upmgo.ClassS, Benches: []string{"BT"}}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

func TestPublicFigure5ScaleOption(t *testing.T) {
	o := upmgo.SweepOptions{Class: upmgo.ClassS, Seed: 42, Iterations: 3, Benches: []string{"BT"}}
	sweep := func(kind upmgo.SweepKind, o upmgo.SweepOptions) []upmgo.Figure5Cell {
		t.Helper()
		res, err := upmgo.SweepRunner{}.Sweep(context.Background(), upmgo.SweepRequest{Kind: kind, Options: o})
		if err != nil {
			t.Fatal(err)
		}
		return res.Figure5
	}
	base := sweep(upmgo.KindFigure5, o)
	scaled := o
	scaled.Scale = 4
	s := sweep(upmgo.KindFigure5, scaled)
	if s[0].Seconds < 2*base[0].Seconds {
		t.Errorf("Scale 4 BT (%.4fs) not clearly longer than native (%.4fs)", s[0].Seconds, base[0].Seconds)
	}
	if f6 := sweep(upmgo.KindFigure6, o); !reflect.DeepEqual(f6, s) {
		t.Error("Figure6 != Figure5 with Scale 4")
	}
}

func TestPublicLatencyScaling(t *testing.T) {
	l := upmgo.Origin2000Latency().ScaleRemote(2, 1)
	if l.MemLatency(0) != upmgo.Origin2000Latency().MemLatency(0) {
		t.Error("local latency changed")
	}
	if l.MemLatency(1) <= upmgo.Origin2000Latency().MemLatency(1) {
		t.Error("remote latency not scaled up")
	}
}

func TestPublicPolicies(t *testing.T) {
	if len(upmgo.Policies) != 4 {
		t.Errorf("Policies has %d entries, want 4", len(upmgo.Policies))
	}
	labels := map[upmgo.Policy]string{
		upmgo.FirstTouch: "ft", upmgo.RoundRobin: "rr",
		upmgo.Random: "rand", upmgo.WorstCase: "wc",
	}
	for p, want := range labels {
		if p.String() != want {
			t.Errorf("%v.String() = %q, want %q", p, p.String(), want)
		}
	}
}
