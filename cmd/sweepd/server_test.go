package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"upmgo"
)

// testRequest is the smallest real sweep: Figure 1 on BT at class S,
// Threads 1 (exactly reproducible, so byte-comparisons are valid).
var testRequest = upmgo.SweepRequest{
	Kind: upmgo.KindFigure1,
	Options: upmgo.SweepOptions{
		Class: upmgo.ClassS, Benches: []string{"BT"}, Seed: 42, Threads: 1,
	},
}

// startServer boots a server (with worker) over a fresh store directory
// and returns it with its HTTP test frontend.
func startServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	st, err := upmgo.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(2, 4, st, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go s.work(ctx)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		<-s.done
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (job, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return j, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	var j job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// waitDone polls a job until it leaves the queue and the pool.
func waitDone(t *testing.T, ts *httptest.Server, id string) job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j := getJob(t, ts, id)
		if j.State == jobDone || j.State == jobFailed {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle is the acceptance path: submit → poll → done with a
// result identical to the in-process computation → fetch one cell from
// /v1/cells and byte-compare it against an independently encoded record.
func TestJobLifecycle(t *testing.T) {
	_, ts := startServer(t)
	blob, err := json.Marshal(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	j, resp := postJob(t, ts, string(blob))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %s", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Errorf("Location = %q", loc)
	}
	if len(j.Cells) != 8 {
		t.Fatalf("figure1/BT enumerated %d cells, want 8", len(j.Cells))
	}

	final := waitDone(t, ts, j.ID)
	if final.State != jobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.CellsDone != len(final.Cells) {
		t.Errorf("progress says %d/%d cells", final.CellsDone, len(final.Cells))
	}

	// The served result must match a direct, storeless, in-process sweep.
	direct, err := upmgo.SweepRunner{}.Sweep(context.Background(), testRequest)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || !reflect.DeepEqual(*final.Result, direct) {
		t.Error("job result differs from direct Sweep of the same request")
	}

	// Fetch one cell and byte-compare it against the record encoding of
	// the direct computation: daemon-served bytes are bit-identical to
	// what any process computes for the cell.
	specs, err := upmgo.SweepSpecs(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range final.Cells {
		cresp, err := http.Get(ts.URL + "/v1/cells/" + ref.Address)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(cresp.Body)
		cresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/cells/%s: %s", ref.Address, cresp.Status)
		}
		key, ok := specs[i].Key()
		if !ok {
			t.Fatal("spec not memoizable")
		}
		want, err := upmgo.EncodeStoreRecord(key, ref.Bench, direct.Cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("cell %s served bytes differ from the direct computation's encoding", ref.Label)
		}
	}
}

// TestWarmStartSecondJob: the same request twice simulates nothing the
// second time (RAM + store hits only), and returns the identical result.
func TestWarmStartSecondJob(t *testing.T) {
	s, ts := startServer(t)
	blob, _ := json.Marshal(testRequest)
	j1, _ := postJob(t, ts, string(blob))
	first := waitDone(t, ts, j1.ID)
	stats := s.cache.Stats()
	if stats.Misses == 0 || stats.StorePuts != stats.Misses {
		t.Fatalf("cold job stats look wrong: %+v", stats)
	}
	j2, _ := postJob(t, ts, string(blob))
	second := waitDone(t, ts, j2.ID)
	if after := s.cache.Stats(); after.Misses != stats.Misses {
		t.Errorf("second job simulated %d new cells, want 0", after.Misses-stats.Misses)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Error("second job's result differs from the first")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := startServer(t)
	for _, tc := range []struct {
		name, body string
		want       string // substring the error body must contain; "" = any
	}{
		{"unknown kind", `{"kind":"figure9","options":{}}`, ""},
		{"not json", `not json`, ""},
		{"unknown field", `{"kind":"figure1","options":{},"surprise":1}`, "surprise"},
		{"bad class", `{"kind":"figure1","options":{"class":"Z"}}`, ""},
		// Options that no longer exist are refused by name, never
		// silently ignored.
		{"removed period_k", `{"kind":"figure1","options":{"period_k":1}}`, "period_k"},
		{"removed no_campaign_ff", `{"kind":"figure1","options":{"no_campaign_ff":true}}`, "no_campaign_ff"},
		{"removed resident_elide", `{"kind":"figure1","options":{"resident_elide":true}}`, "resident_elide"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %s, want 400", tc.name, resp.Status)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: error body %q does not name %q", tc.name, body, tc.want)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: got %s, want 404", resp.Status)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/cells/" + strings.Repeat("0", 64)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing cell: got %s, want 404", resp.Status)
		}
	}
}

// TestCrashShapesAnswer400: topologies that once killed the daemon (an
// overflowing CPU count, 40 arity-1 levels, a CPU count that wraps to 0)
// are refused at submission with 400, and the daemon keeps serving.
func TestCrashShapesAnswer400(t *testing.T) {
	_, ts := startServer(t)
	for _, topo := range []string{
		"2x4611686018427387904",
		"2x" + strings.Repeat("1x", 40) + "2x2",
		"4x4611686018427387904",
	} {
		body := `{"kind":"figure1","options":{"class":"S","benches":["BT"],"topo":"` + topo + `"}}`
		_, resp := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("topo %q: got %s, want 400", topo, resp.Status)
		}
	}
	body, err := json.Marshal(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	j, resp := postJob(t, ts, string(body))
	if resp.StatusCode != http.StatusAccepted || j.ID != "job-1" {
		t.Fatalf("valid job after the refusals: %s, id %q; want 202, job-1", resp.Status, j.ID)
	}
	if j = waitDone(t, ts, j.ID); j.State != jobDone {
		t.Errorf("valid job ended %s", j.State)
	}
}

// TestOversizedBodyAnswers413: a job body past maxJobBody is refused
// with 413 before it is decoded in full, and no job is queued.
func TestOversizedBodyAnswers413(t *testing.T) {
	_, ts := startServer(t)
	body := `{"kind":"figure1","options":{"class":"` + strings.Repeat("S", maxJobBody) + `"}}`
	j, resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("got %s, want 413", resp.Status)
	}
	if j.ID != "" {
		t.Errorf("oversized body queued job %q", j.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct{ Jobs []job }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Errorf("job list has %d jobs after a refused body, want 0", len(list.Jobs))
	}
}

// TestQueueFullAnswers503: with no worker draining the queue, the
// (queueCap+1)-th submission is rejected with 503 and does not appear in
// the job list.
func TestQueueFullAnswers503(t *testing.T) {
	s := newServer(1, 2, nil, nil) // worker never started
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	blob, _ := json.Marshal(testRequest)
	for i := 0; i < 2; i++ {
		if _, resp := postJob(t, ts, string(blob)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %s", i, resp.Status)
		}
	}
	_, resp := postJob(t, ts, string(blob))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission: got %s, want 503", resp.Status)
	}
	list, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var body struct {
		Jobs []job `json:"jobs"`
	}
	if err := json.NewDecoder(list.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 2 {
		t.Errorf("job list has %d entries, want the 2 accepted", len(body.Jobs))
	}
}

// TestDrainFailsQueuedJobs: cancelling the worker context fails
// still-queued jobs fast and closes the drain barrier.
func TestDrainFailsQueuedJobs(t *testing.T) {
	s := newServer(1, 4, nil, nil)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	blob, _ := json.Marshal(testRequest)
	j, _ := postJob(t, ts, string(blob))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-cancelled: the worker must fail everything queued
	go s.work(ctx)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
	if got := getJob(t, ts, j.ID); got.State != jobFailed || !strings.Contains(got.Error, "draining") {
		t.Errorf("queued job after drain: state %s, error %q", got.State, got.Error)
	}
}

// TestMetricsEndpoint: the daemon serves the shared sweep gauges plus
// its own job-state family on /metrics.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t)
	blob, _ := json.Marshal(testRequest)
	j, _ := postJob(t, ts, string(blob))
	waitDone(t, ts, j.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`upmgo_sweepd_jobs{state="done"} 1`,
		"upmgo_sweep_cells_done",
		"upmgo_sweep_cells_stored",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCellsSharedWithCLIStore: a store directory populated by one
// process (standing in for `sweep -store`) is served by the daemon
// without re-running anything — no worker involved at all.
func TestCellsSharedWithCLIStore(t *testing.T) {
	dir := t.TempDir()
	writer, err := upmgo.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := upmgo.SweepRunner{}.Sweep(context.Background(), testRequest)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := upmgo.SweepSpecs(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := specs[0].Key()
	if !ok {
		t.Fatal("spec not memoizable")
	}
	if err := writer.Put(key, specs[0].Bench, direct.Cells[0].Result); err != nil {
		t.Fatal(err)
	}

	reader, err := upmgo.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(1, 1, reader, nil) // no worker: serving is read-only
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/cells/%s", ts.URL, upmgo.StoreAddress(key)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cells: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := upmgo.EncodeStoreRecord(key, specs[0].Bench, direct.Cells[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("daemon served different bytes than the CLI-written record")
	}
}
