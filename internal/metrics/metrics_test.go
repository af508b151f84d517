package metrics_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"upmgo/internal/metrics"
	"upmgo/internal/nas"
	"upmgo/internal/nas/ft"
	"upmgo/internal/vm"
)

// sampleRun runs FT Class S (worst-case placement, both engines) with
// the given sampler attached and returns its result.
func sampleRun(t *testing.T, s *metrics.Sampler) nas.Result {
	t.Helper()
	res, err := nas.Run(ft.New, nas.Config{
		Class:     nas.ClassS,
		Placement: vm.WorstCase,
		KernelMig: true,
		UPM:       nas.UPMDistribute,
		Metrics:   s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSamplerEndToEnd drives one real run through the sampler and checks
// the series against the run, the live registry publication, and every
// exporter.
func TestSamplerEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	s := metrics.NewSampler(metrics.Options{Heatmap: true, Registry: reg, Cell: "ft-wc"})
	res := sampleRun(t, s)
	se := s.Series()

	if se.Cell != "ft-wc" {
		t.Errorf("series cell %q", se.Cell)
	}
	if se.Nodes == 0 || se.PageBytes == 0 || se.HotPages == 0 || len(se.HotRanges) == 0 {
		t.Errorf("series geometry not filled: %+v", se)
	}
	var iters int
	for _, sm := range se.Samples {
		if sm.Kind == "iter" {
			iters++
		}
	}
	if iters != len(res.IterPS) {
		t.Fatalf("%d iteration samples, want %d", iters, len(res.IterPS))
	}
	if len(se.Heat) != iters {
		t.Fatalf("%d heatmaps, want %d", len(se.Heat), iters)
	}
	local, remote := se.Locality()
	if local != res.Mach.LocalMem || remote != res.Mach.RemoteMem {
		t.Errorf("Locality (%d, %d), run reported (%d, %d)", local, remote, res.Mach.LocalMem, res.Mach.RemoteMem)
	}

	// Live registry: the last iteration's values are published with the
	// cell label.
	var prom bytes.Buffer
	if err := reg.WriteText(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		`upmgo_page_residency{cell="ft-wc",node="0"}`,
		`upmgo_refs{cell="ft-wc",kind="local"}`,
		`upmgo_refs{cell="ft-wc",kind="remote"}`,
		`upmgo_mem_accesses{cell="ft-wc",kind="remote"}`,
		`upmgo_page_migrations{cell="ft-wc"}`,
		"# TYPE upmgo_page_residency gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry text lacks %q:\n%s", want, text)
		}
	}

	// JSON roundtrip is lossless.
	var buf bytes.Buffer
	if err := se.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := metrics.ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(se, back) {
		t.Error("series JSON roundtrip not lossless")
	}

	// CSV: a header plus one row per sample, node columns widened.
	buf.Reset()
	if err := se.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(se.Samples) {
		t.Errorf("CSV has %d lines, want header + %d samples", len(lines), len(se.Samples))
	}
	if !strings.HasPrefix(lines[0], "step,kind,time_ps") || !strings.Contains(lines[0], ",res0,") {
		t.Errorf("CSV header malformed: %s", lines[0])
	}
	for _, l := range lines {
		if got, want := strings.Count(l, ","), strings.Count(lines[0], ","); got != want {
			t.Fatalf("ragged CSV row (%d vs %d columns): %s", got+1, want+1, l)
		}
	}

	// The Prometheus snapshot of the final sample matches the live
	// registry's families.
	buf.Reset()
	if err := se.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `upmgo_page_residency{cell="ft-wc",node="0"}`) {
		t.Errorf("prometheus snapshot lacks residency:\n%s", buf.String())
	}
}

// TestSamplerIdle: an unarmed sampler absorbs events and sampling calls
// without panicking and yields an empty series.
func TestSamplerIdle(t *testing.T) {
	s := metrics.NewSampler(metrics.Options{})
	s.SampleIteration(1, 100)
	se := s.Series()
	if len(se.Samples) != 0 || se.Nodes != 0 {
		t.Errorf("idle sampler produced samples: %+v", se)
	}
	var buf bytes.Buffer
	if err := se.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("empty series rendered %q, %v", buf.String(), err)
	}
}

// TestRegistry checks the hand-rolled registry's exposition format:
// deterministic ordering, label escaping, counter/gauge metadata, Add
// accumulation.
func TestRegistry(t *testing.T) {
	r := metrics.NewRegistry()
	r.Describe("b_counter", "counter", "a counter")
	r.Add("b_counter", nil, 1)
	r.Add("b_counter", nil, 2)
	r.Set("a_gauge", metrics.Labels{"x": `va"l\ue` + "\n"}, 1.5)
	r.Set("a_gauge", metrics.Labels{"x": "other", "a": "z"}, 2)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE a_gauge gauge
a_gauge{a="z",x="other"} 2
a_gauge{x="va\"l\\ue\n"} 1.5
# HELP b_counter a counter
# TYPE b_counter counter
b_counter 3
`
	if buf.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

// TestHandler checks the combined observability endpoint: Prometheus
// text on /metrics, expvar JSON on /debug/vars, pprof index, and the
// human index page.
func TestHandler(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Set("upmgo_test", nil, 7)
	srv := httptest.NewServer(metrics.Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body.String()
	}

	code, ctype, body := get("/metrics")
	if code != 200 || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics: %d %q", code, ctype)
	}
	if !strings.Contains(body, "upmgo_test 7") {
		t.Errorf("/metrics body lacks the gauge:\n%s", body)
	}

	code, _, body = get("/debug/vars")
	if code != 200 {
		t.Errorf("/debug/vars: %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars lacks memstats")
	}

	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: %d", code)
	}
	if code, _, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d", code)
	}
	if code, _, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path: %d, want 404", code)
	}
}
