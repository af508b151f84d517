// Command benchcompare is the benchmark gate (DESIGN.md §16). It runs
// bench/run.sh in alternating pairs on a base revision, checked out into
// a temporary git worktree, and on the working tree, and fails when the
// working tree's runs are incorrect, fail more often, or read worse than
// the base by more than a BENCHMARK.json bound on any end-to-end metric:
//
//	go run ./ci/benchcompare HEAD~1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// pairs and seconds size the gate: 10 pairs of runs of 4 s per workload
// take 6 to 6.5 minutes on a 2-vCPU host, inside CI's 15-minute timeout.
const (
	pairs   = 10
	seconds = 4
)

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: benchcompare <base-rev>")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := gate(ctx, os.Args[1], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(1)
	}
}

// gate checks out base, measures both sides and judges the change.
func gate(ctx context.Context, base string, stdout, stderr io.Writer) error {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchcompare-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if _, err := git(ctx, root, "worktree", "add", "--detach", baseDir, base); err != nil {
		return err
	}
	defer func() {
		// Not ctx: the worktree is removed after an interrupt too.
		if _, err := git(context.Background(), root, "worktree", "remove", "--force", baseDir); err != nil {
			fmt.Fprintf(stderr, "benchcompare: %v\n", err)
		}
	}()
	dirs := map[bool]string{false: baseDir, true: root}
	bs, cs, err := measure(pairs, func(change bool) (result, error) {
		return runHarness(ctx, dirs[change], stderr)
	}, stderr)
	if err != nil {
		return err
	}
	if n := judge(sp, bs, cs, stdout); n > 0 {
		return fmt.Errorf("%d problem(s) against base %s", n, base)
	}
	return nil
}

// git runs a git command in dir ("" = the current directory) and returns
// its trimmed output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return strings.TrimSpace(string(out)), nil
}

// spec is the part of BENCHMARK.json the gate reads. Bound is the share
// of the base median by which a metric may worsen.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"` // "lower" or "higher"
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (sp spec, err error) {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err == nil && (len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0) {
		err = fmt.Errorf("%s: no workloads or no end-to-end metrics", path)
	}
	return sp, err
}

// result is the harness's last output line: the run's verdict and its
// metrics, named <workload>/<metric>.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult decodes the last line of a harness run's standard output.
func parseResult(out []byte) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("harness result line %q: %w", last, err)
	}
	return r, nil
}

// runHarness runs the harness once, at its default seed, from the
// checkout in dir. A run without a result line is an error.
func runHarness(ctx context.Context, dir string, stderr io.Writer) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "--trace", "0", "--seconds", strconv.Itoa(seconds))
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	r, perr := parseResult(out)
	if perr != nil {
		return r, fmt.Errorf("bench/run.sh in %s: %v (exit: %v)", dir, perr, err)
	}
	return r, nil
}

// measure runs n pairs of base and change runs, flipping which side runs
// first on every pair so drift in the host hits both sides alike.
func measure(n int, run func(change bool) (result, error), log io.Writer) (bs, cs []result, err error) {
	for i := 0; i < n; i++ {
		for k := i; k < i+2; k++ {
			change, side := k%2 == 1, []string{"base", "change"}[k%2]
			t0 := time.Now()
			r, err := run(change)
			if err != nil {
				return nil, nil, fmt.Errorf("pair %d, %s: %w", i+1, side, err)
			}
			fmt.Fprintf(log, "benchcompare: pair %d/%d %s: %.0fs, correct=%t\n", i+1, n, side, time.Since(t0).Seconds(), r.Correct)
			if change {
				cs = append(cs, r)
			} else {
				bs = append(bs, r)
			}
		}
	}
	return bs, cs, nil
}

// judge prints every problem, then the comparison table, and returns the
// number of problems. A metric whose base IQR/median is wider than its
// bound is unresolved, with no verdict.
func judge(sp spec, bs, cs []result, w io.Writer) int {
	problems := 0
	fail := func(format string, a ...any) {
		problems++
		fmt.Fprintf(w, "FAIL "+format+"\n", a...)
	}
	for i, r := range cs {
		if !r.Correct {
			fail("change run %d is not correct", i+1)
		}
	}
	if b, c := failedShare(bs), failedShare(cs); c > b {
		fail("change failed share %.4g > base %.4g", c, b)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tbase\tchange\tbase IQR/median\twins change-base\tgap\tbound\tverdict\t")
	unresolved := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			name := wl.Name + "/" + m.Name
			bv, berr := values(bs, name)
			cv, cerr := values(cs, name)
			if err := errors.Join(berr, cerr); err != nil {
				fail("%s: %v", name, err)
				continue
			}
			sign := 1.0 // +1 when a rise is a worsening
			if m.Better == "higher" {
				sign = -1
			}
			bq1, bmed, bq3 := quartiles(bv)
			_, cmed, _ := quartiles(cv)
			spread, gap := (bq3-bq1)/bmed, (cmed-bmed)/bmed
			cwins, bwins := 0, 0 // ties count for neither
			for i := range bv {
				if d := sign * (cv[i] - bv[i]); d < 0 {
					cwins++
				} else if d > 0 {
					bwins++
				}
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
				unresolved++
			case sign*gap > m.Bound:
				verdict = "WORSE"
				fail("%s: change median %.4g %s is %.1f%% worse than base %.4g %s, past the %.0f%% bound",
					name, cmed, m.Unit, 100*sign*gap, bmed, m.Unit, 100*m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%.4g %s\t%.4g %s\t%.3f\t%d-%d\t%+.1f%%\t%.2f\t%s\t\n",
				name, bmed, m.Unit, cmed, m.Unit, spread, cwins, bwins, 100*gap, m.Bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d pairs, %d unresolved, %d problem(s)\n", len(cs), unresolved, problems)
	return problems
}

// values collects one metric from every run, or says which run lacks it.
func values(rs []result, name string) ([]float64, error) {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("run %d of %d has no value", i+1, len(rs))
		}
		vs[i] = v.Value
	}
	return vs, nil
}

// failedShare is the share of attempted operations that failed.
func failedShare(rs []result) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(attempted)
}

// quartiles returns Q1, the median and Q3 by the method of the bench
// README's bounds (Python's statistics.quantiles, "exclusive").
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
