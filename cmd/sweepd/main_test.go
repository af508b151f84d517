package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"upmgo"
	"upmgo/internal/cli"
)

// seedStore writes one real cell into a fresh store directory.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := upmgo.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := upmgo.RunNAS("BT", upmgo.NASConfig{Class: upmgo.ClassS, Placement: upmgo.FirstTouch, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("BT\x00seeded", "BT", res); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAdminScanCheckGC(t *testing.T) {
	dir := seedStore(t)
	ctx := context.Background()
	var out, errw bytes.Buffer

	if err := run(ctx, []string{"-store", dir, "-scan"}, &out, &errw); err != nil {
		t.Fatalf("-scan: %v", err)
	}
	if !strings.Contains(out.String(), "1 records") || !strings.Contains(out.String(), "BT") {
		t.Errorf("-scan output:\n%s", out.String())
	}

	out.Reset()
	if err := run(ctx, []string{"-store", dir, "-check"}, &out, &errw); err != nil {
		t.Fatalf("-check: %v", err)
	}
	if !strings.Contains(out.String(), "1 intact, 0 stale, 0 corrupt") {
		t.Errorf("-check output:\n%s", out.String())
	}

	out.Reset()
	if err := run(ctx, []string{"-store", dir, "-gc", "1"}, &out, &errw); err != nil {
		t.Fatalf("-gc: %v", err)
	}
	if !strings.Contains(out.String(), "removed 1 records") {
		t.Errorf("-gc output:\n%s", out.String())
	}
}

func TestAdminNeedsStore(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(context.Background(), []string{"-check"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Errorf("admin without -store: %v", err)
	}
}

// TestRunFlagErrors: every usage error is printed once, whether the
// FlagSet or cli.Exit reports it.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"-jobs", "x"}, {"extra"}, {"-check"}, {"-log", "xml"}} {
		var out, errw bytes.Buffer
		err := run(context.Background(), args, &out, &errw)
		if err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
			continue
		}
		cli.Exit("sweepd", err, &errw)
		if n := strings.Count(errw.String(), err.Error()); n != 1 {
			t.Errorf("run(%v) printed %q %d times, want once:\n%s", args, err, n, errw.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"extra"}, &out, &errw); err == nil {
		t.Error("positional arguments accepted")
	}
	if err := run(context.Background(), []string{"-queue", "0"}, &out, &errw); err == nil {
		t.Error("-queue 0 accepted")
	}
	if err := run(context.Background(), []string{"-store", "/dev/null/nope"}, &out, &errw); err == nil {
		t.Error("unusable -store accepted")
	}
}

// TestServeAndDrain boots the real daemon on an ephemeral port, submits
// a job over TCP, then cancels the context (the SIGTERM path) and
// expects a clean drain: the running job finishes before run returns.
func TestServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	old := serving
	serving = func(addr string) { addrc <- addr }
	defer func() { serving = old }()

	var out, errw bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-store", dir, "-jobs", "2"}, &out, &errw)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("server exited early: %v (stderr: %s)", err, errw.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}

	blob, _ := json.Marshal(testRequest)
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var j job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %s", resp.Status)
	}

	// Poll until done, then drain.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := http.Get("http://" + addr + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got job
		if err := json.NewDecoder(jr.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if got.State == jobDone {
			break
		}
		if got.State == jobFailed {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v (stderr: %s)", err, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}
	if !strings.Contains(errw.String(), "drained") {
		t.Errorf("stderr missing drain notice:\n%s", errw.String())
	}

	// The drained daemon left a warm store behind: every cell of the job
	// is on disk, intact.
	st, err := upmgo.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.Check()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Records != 8 || ck.Corrupt != 0 {
		t.Errorf("store after drain: %+v, want 8 intact", ck)
	}
}
