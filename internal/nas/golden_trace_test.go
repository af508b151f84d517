package nas_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

var update = flag.Bool("update", false, "rewrite the golden trace summaries")

const goldenPath = "testdata/bt_s_wc_upmlib.summary.json.gz"

// goldenConfig is the pinned cell: BT Class S, worst-case placement
// repaired by UPMlib, at the one thread the golden file was captured
// with. Every width is deterministic; another would only change every
// number in the file.
func goldenConfig() nas.Config {
	return nas.Config{
		Class:     nas.ClassS,
		Placement: vm.WorstCase,
		UPM:       nas.UPMDistribute,
		Threads:   1,
	}
}

// TestGoldenTrace pins the full structured trace summary of one cell. The
// merged event stream of a deterministic run is deterministic (see the
// trace package contract), so any drift in event emission, merge order, or
// summarisation shows up here as a field-level diff. Regenerate with
// `go test ./internal/nas/ -run TestGoldenTrace -update` after an
// intentional change, and justify the new numbers in the commit.
func TestGoldenTrace(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := goldenConfig()
	cfg.Tracer = rec
	if _, err := nas.Run(bt.New, cfg); err != nil {
		t.Fatal(err)
	}
	got := trace.Summarize(rec.Events())

	if *update {
		writeGolden(t, goldenPath, got)
		return
	}
	want := readGolden(t, goldenPath)

	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	typ := gv.Type()
	for i := 0; i < typ.NumField(); i++ {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("Summary.%s drifted:\n got  %+v\n want %+v", typ.Field(i).Name, g, w)
		}
	}
	if t.Failed() {
		t.Log("if the change is intentional, regenerate with -update")
	}
}

func writeGolden(t *testing.T, path string, s trace.Summary) {
	t.Helper()
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(append(blob, '\n')); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d events, %d bytes gzipped)", path, s.Events, buf.Len())
}

func readGolden(t *testing.T, path string) trace.Summary {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var s trace.Summary
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}
