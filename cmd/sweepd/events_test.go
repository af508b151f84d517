package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// readEvents tails one job's NDJSON stream to EOF (the stream closes
// itself at the job's terminal state) and decodes every line.
func readEvents(t *testing.T, ts *httptest.Server, id string) []jobEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var events []jobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestJobEventsStream: tailing a live job yields the full lifecycle —
// job_queued, job_started, a started/done pair per cell, job_done —
// with dense per-job sequence numbers and per-cell outcome data.
func TestJobEventsStream(t *testing.T) {
	_, ts := startServer(t)
	blob, _ := json.Marshal(testRequest)
	j, _ := postJob(t, ts, string(blob))

	// Tail live: the GET is issued while the job runs (or is queued) and
	// returns only once the terminal event has been streamed.
	events := readEvents(t, ts, j.ID)
	if len(events) != 2+2*len(j.Cells)+1 {
		t.Fatalf("got %d events, want %d (queued+started+2×%d cells+done)",
			len(events), 2+2*len(j.Cells)+1, len(j.Cells))
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d, want dense numbering", i, ev.Seq)
		}
		if ev.Job != j.ID {
			t.Errorf("event %d names job %q, want %q", i, ev.Job, j.ID)
		}
	}
	if events[0].Type != "job_queued" || events[1].Type != "job_started" {
		t.Errorf("stream starts %q, %q; want job_queued, job_started", events[0].Type, events[1].Type)
	}
	last := events[len(events)-1]
	if last.Type != "job_done" || last.CellsDone != len(j.Cells) {
		t.Errorf("stream ends %+v, want job_done with %d cells", last, len(j.Cells))
	}
	var started, done int
	for _, ev := range events {
		switch ev.Type {
		case "cell_started":
			started++
			if ev.Bench == "" || ev.Label == "" || ev.Address == "" {
				t.Errorf("cell_started lacks identity: %+v", ev)
			}
		case "cell_done":
			done++
			if want := j.Cells[ev.Index-1].Address; ev.Address != want {
				t.Errorf("cell_done address %q, want the submitted cell's %q", ev.Address, want)
			}
			if ev.Kind == "" {
				t.Errorf("cell_done lacks a fast-path kind: %+v", ev)
			}
			if ev.HostSeconds <= 0 || ev.VirtualSeconds <= 0 {
				t.Errorf("cell_done lacks timings: %+v", ev)
			}
			if ev.Error != "" {
				t.Errorf("cell failed: %+v", ev)
			}
		}
	}
	if started != len(j.Cells) || done != len(j.Cells) {
		t.Errorf("saw %d started / %d done cell events, want %d each", started, done, len(j.Cells))
	}

	// Replay: a finished job's stream is its complete history, byte-for-
	// byte re-decodable, and closes without waiting.
	replay := readEvents(t, ts, j.ID)
	if len(replay) != len(events) {
		t.Errorf("replay has %d events, live tail had %d", len(replay), len(events))
	}

	// Unknown jobs 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: got %s, want 404", resp.Status)
	}
}

// TestMetricsHistograms: after one job, /metrics exposes the telemetry
// contract — queue-wait, run-time, per-endpoint HTTP latency and
// per-cell host-seconds histograms, plus the build-info gauge.
func TestMetricsHistograms(t *testing.T) {
	_, ts := startServer(t)
	blob, _ := json.Marshal(testRequest)
	j, _ := postJob(t, ts, string(blob))
	waitDone(t, ts, j.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE upmgo_sweepd_job_queue_seconds histogram",
		"upmgo_sweepd_job_queue_seconds_count 1",
		`upmgo_sweepd_job_run_seconds_count{state="done"} 1`,
		"# TYPE upmgo_sweepd_http_request_seconds histogram",
		`endpoint="POST /v1/jobs"`,
		`endpoint="GET /v1/jobs/{id}"`,
		"# TYPE upmgo_sweep_cell_host_seconds histogram",
		`upmgo_sweep_cell_host_seconds_count{bench="BT",cell="ft-IRIX"} 1`,
		"upmgo_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestRequestLogging: the telemetry middleware writes one structured
// line per request through the server's logger.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	s := newServer(1, 2, nil, slog.New(slog.NewTextHandler(&buf, nil))) // worker never started
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.String()
	for _, want := range []string{"msg=request", "method=GET", `endpoint="GET /v1/jobs"`, "code=200"} {
		if !strings.Contains(line, want) {
			t.Errorf("request log lacks %q: %s", want, line)
		}
	}
}
