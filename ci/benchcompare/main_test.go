package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a one-workload BENCHMARK.json with a lower-is-better time
// bounded at 0.24 and a higher-is-better rate bounded at 0.10.
const testSpec = `{
  "workloads": [{"name": "w", "why": "test"}],
  "end_to_end": [
    {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10}
  ]
}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustSpec(t *testing.T) spec {
	t.Helper()
	sp, err := loadSpec(writeSpec(t, testSpec))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// line renders a harness result line as bench/run.sh prints it.
func line(correct bool, attempted, failed int, sweep, rate float64) string {
	return fmt.Sprintf(`{"correct":%t,"attempted":%d,"failed":%d,"metrics":{"w/sweep_s":{"value":%g,"unit":"s"},"w/rate":{"value":%g,"unit":"1/s"}}}`,
		correct, attempted, failed, sweep, rate)
}

// results parses canned harness output: per-metric lines, then the
// result line last.
func results(t *testing.T, lines ...string) []result {
	t.Helper()
	var rs []result
	for _, l := range lines {
		r, err := parseResult([]byte("# host num_cpu=2\nw sweep_s 1 s\n" + l + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	return rs
}

// okRuns is n correct runs with sweep_s sweep[i] and rate 100.
func okRuns(t *testing.T, sweep ...float64) []result {
	var ls []string
	for _, s := range sweep {
		ls = append(ls, line(true, 10, 0, s, 100))
	}
	return results(t, ls...)
}

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 4, 6},
		{[]float64{1, 1, 1, 1, 1, 1, 9, 9}, 1, 1, 7},
	} {
		q1, q2, q3 := quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-12 || q2 != tc.q2 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.vs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestJudgeWins: the wins column counts the pairs each side read better,
// by the metric's direction; ties count for neither.
func TestJudgeWins(t *testing.T) {
	var out bytes.Buffer
	base := okRuns(t, 1, 1, 1, 1, 1)
	chg := results(t, line(true, 10, 0, 0.9, 90), line(true, 10, 0, 1, 100), line(true, 10, 0, 1.1, 110),
		line(true, 10, 0, 0.8, 80), line(true, 10, 0, 1, 100))
	judge(mustSpec(t), base, chg, &out)
	for row, wins := range map[string]string{"w/sweep_s ": " 2-1 ", "w/rate ": " 1-2 "} {
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, row) && !strings.Contains(l, wins) {
				t.Errorf("row %q lacks wins%s", l, wins)
			}
		}
	}
}

func TestJudgePasses(t *testing.T) {
	var out bytes.Buffer
	base := okRuns(t, 1.00, 1.02, 0.98, 1.01, 0.99)
	chg := okRuns(t, 1.10, 1.12, 1.08, 1.11, 1.09) // +10%, inside 0.24
	if n := judge(mustSpec(t), base, chg, &out); n != 0 {
		t.Errorf("%d problems, want 0:\n%s", n, &out)
	}
	for _, want := range []string{"w/sweep_s", "w/rate", "0-5", "+10.0%", "0 unresolved, 0 problem(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, &out)
		}
	}
}

func TestJudgeBoundBreachFails(t *testing.T) {
	var out bytes.Buffer
	base := okRuns(t, 1.00, 1.02, 0.98, 1.01, 0.99)
	chg := okRuns(t, 1.30, 1.32, 1.28, 1.31, 1.29) // +30% > 0.24
	if n := judge(mustSpec(t), base, chg, &out); n != 1 {
		t.Errorf("%d problems, want 1:\n%s", n, &out)
	}
	if !strings.Contains(out.String(), "WORSE") || !strings.Contains(out.String(), "FAIL w/sweep_s: change median 1.3 s is 30.0% worse") {
		t.Errorf("no WORSE verdict naming w/sweep_s:\n%s", &out)
	}

	// Higher is better: a 20% drop in rate breaches its 0.10 bound, and
	// a 20% rise does not.
	drop := results(t, line(true, 10, 0, 1, 80), line(true, 10, 0, 1, 80), line(true, 10, 0, 1, 80))
	rise := results(t, line(true, 10, 0, 1, 120), line(true, 10, 0, 1, 120), line(true, 10, 0, 1, 120))
	steady := results(t, line(true, 10, 0, 1, 100), line(true, 10, 0, 1, 100), line(true, 10, 0, 1, 100))
	if n := judge(mustSpec(t), steady, drop, &out); n != 1 {
		t.Errorf("rate drop: %d problems, want 1", n)
	}
	if n := judge(mustSpec(t), steady, rise, &out); n != 0 {
		t.Errorf("rate rise: %d problems, want 0", n)
	}
}

func TestJudgeUnresolvedWhenBaseSpreadExceedsBound(t *testing.T) {
	var out bytes.Buffer
	base := okRuns(t, 0.6, 1.4, 1.0, 0.7, 1.3) // IQR/median 0.7
	chg := okRuns(t, 2, 2, 2, 2, 2)            // +100%, but unresolved
	if n := judge(mustSpec(t), base, chg, &out); n != 0 {
		t.Errorf("%d problems, want 0:\n%s", n, &out)
	}
	if !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "WORSE") {
		t.Errorf("want unresolved and no verdict:\n%s", &out)
	}
	if !strings.Contains(out.String(), "1 unresolved") {
		t.Errorf("unresolved not counted:\n%s", &out)
	}
}

func TestJudgeLargerFailedShareFails(t *testing.T) {
	var out bytes.Buffer
	base := results(t, line(true, 100, 1, 1, 100), line(true, 100, 1, 1, 100))
	same := results(t, line(true, 200, 2, 1, 100), line(true, 100, 1, 1, 100))
	more := results(t, line(true, 100, 2, 1, 100), line(true, 100, 1, 1, 100))
	if n := judge(mustSpec(t), base, same, &out); n != 0 {
		t.Errorf("equal share: %d problems, want 0:\n%s", n, &out)
	}
	out.Reset()
	if n := judge(mustSpec(t), base, more, &out); n != 1 || !strings.Contains(out.String(), "failed share") {
		t.Errorf("larger share: %d problems, want 1:\n%s", n, &out)
	}
}

func TestJudgeMissingMetricFails(t *testing.T) {
	var out bytes.Buffer
	base := okRuns(t, 1, 1, 1)
	chg := append(okRuns(t, 1, 1), results(t, `{"correct":true,"attempted":10,"failed":0,"metrics":{"w/rate":{"value":100,"unit":"1/s"}}}`)...)
	if n := judge(mustSpec(t), base, chg, &out); n != 1 {
		t.Errorf("%d problems, want 1:\n%s", n, &out)
	}
	if !strings.Contains(out.String(), "FAIL w/sweep_s: run 3 of 3 has no value") {
		t.Errorf("missing metric not named:\n%s", &out)
	}
	out.Reset()
	if n := judge(mustSpec(t), chg, base, &out); n != 1 {
		t.Errorf("missing on the base side: %d problems, want 1:\n%s", n, &out)
	}
}

func TestJudgeIncorrectChangeRunFails(t *testing.T) {
	var out bytes.Buffer
	base := okRuns(t, 1, 1, 1)
	chg := results(t, line(true, 10, 0, 1, 100), line(false, 10, 0, 1, 100), line(true, 10, 0, 1, 100))
	if n := judge(mustSpec(t), base, chg, &out); n != 1 || !strings.Contains(out.String(), "change run 2 is not correct") {
		t.Errorf("%d problems, want 1:\n%s", n, &out)
	}
	// An incorrect base run is the base's business: only its failed
	// share and metrics are compared.
	out.Reset()
	if n := judge(mustSpec(t), chg, base, &out); n != 0 {
		t.Errorf("incorrect base run: %d problems, want 0:\n%s", n, &out)
	}
}

func TestParseResultErrors(t *testing.T) {
	for _, out := range []string{"", "w sweep_s 1 s\n", "{\"correct\":tru"} {
		if _, err := parseResult([]byte(out)); err == nil {
			t.Errorf("parseResult(%q) accepted", out)
		}
	}
}

func TestLoadSpec(t *testing.T) {
	if _, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json")); err != nil {
		t.Errorf("the repository's BENCHMARK.json: %v", err)
	}
	for _, body := range []string{
		`not json`,
		`{"workloads":[],"end_to_end":[{"name":"x","better":"lower","bound":0.1}]}`,
		`{"workloads":[{"name":"w"}],"end_to_end":[]}`,
	} {
		if _, err := loadSpec(writeSpec(t, body)); err == nil {
			t.Errorf("loadSpec accepted %s", body)
		}
	}
	if _, err := loadSpec(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("loadSpec accepted a missing file")
	}
}

// TestMeasureAlternates: pairs alternate which side runs first, and a
// run that yields no result stops the measurement.
func TestMeasureAlternates(t *testing.T) {
	var order []string
	var log bytes.Buffer
	bs, cs, err := measure(3, func(change bool) (result, error) {
		order = append(order, map[bool]string{false: "b", true: "c"}[change])
		return result{Correct: true}, nil
	}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "bccbbc" {
		t.Errorf("run order %s, want bccbbc", got)
	}
	if len(bs) != 3 || len(cs) != 3 {
		t.Errorf("%d base and %d change results, want 3 each", len(bs), len(cs))
	}
	if !strings.Contains(log.String(), "pair 3/3 change") {
		t.Errorf("progress log lacks the last run:\n%s", &log)
	}

	broken := func(change bool) (result, error) {
		if change {
			return result{}, errors.New("no result line")
		}
		return result{Correct: true}, nil
	}
	if _, _, err := measure(3, broken, &log); err == nil || !strings.Contains(err.Error(), "pair 1, change") {
		t.Errorf("measure error = %v, want it to name pair 1, change", err)
	}
}

// TestGateUnknownRev: a base revision git cannot resolve fails before
// any harness run, and leaves no worktree behind.
func TestGateUnknownRev(t *testing.T) {
	ctx := context.Background()
	if _, err := git(ctx, "", "rev-parse", "--show-toplevel"); err != nil {
		t.Skipf("not in a git checkout: %v", err)
	}
	var out, errb bytes.Buffer
	err := gate(ctx, "no-such-rev-benchcompare", &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "git archive") {
		t.Errorf("gate error = %v, want the failed extraction named", err)
	}
	list, err := git(ctx, "", "worktree", "list")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(list, "benchcompare-") {
		t.Errorf("worktree left behind:\n%s", list)
	}
}

// TestExtractLeavesWorktrees: extracting a revision of a throwaway
// repository writes its committed tree, not later edits, and adds no
// worktree.
func TestExtractLeavesWorktrees(t *testing.T) {
	ctx := context.Background()
	repo := t.TempDir()
	if _, err := git(ctx, repo, "init", "-q"); err != nil {
		t.Skipf("git unavailable: %v", err)
	}
	if err := os.MkdirAll(filepath.Join(repo, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo, "sub", "f.txt"), []byte("base\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"add", "sub/f.txt"},
		{"-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "base"},
	} {
		if _, err := git(ctx, repo, args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(repo, "sub", "f.txt"), []byte("edited\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := git(ctx, repo, "worktree", "list")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "base")
	if err := extract(ctx, repo, "HEAD", dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "sub", "f.txt")); err != nil || string(got) != "base\n" {
		t.Errorf("extracted sub/f.txt = %q (%v), want the committed %q", got, err, "base\n")
	}
	if after, err := git(ctx, repo, "worktree", "list"); err != nil || after != before {
		t.Errorf("worktree list changed (%v):\n%s\nwas:\n%s", err, after, before)
	}
	if err := extract(ctx, repo, "no-such-rev", filepath.Join(t.TempDir(), "x")); err == nil || !strings.Contains(err.Error(), "git archive") {
		t.Errorf("extract of an unknown revision: %v, want a git archive error", err)
	}
}
