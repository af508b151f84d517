package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"upmgo"
)

// workload is one sweep invocation the benchmark reproduces. It travels
// to the worker process as JSON, so the worker runs exactly what the
// harness (or a test) asked for.
type workload struct {
	Name string `json:"name"`
	// Why is the reason the workload exists: what it stresses and what it
	// bypasses (README.md's glossary repeats it).
	Why string `json:"-"`
	// Reps is the number of timed repetitions when no -seconds budget is
	// given.
	Reps  int                `json:"-"`
	Kinds []upmgo.SweepKind  `json:"kinds"`
	Opts  upmgo.SweepOptions `json:"options"` // Seed is set per run
	// Store runs the sweep into a fresh result store, then re-runs it warm
	// from that store (outside the timed sweep).
	Store bool `json:"store,omitempty"`
}

// The three Class W workloads run the paper's headline grid on its main
// code: Figure 4 for BT, four placements x {IRIX, IRIX kernel migration,
// UPMlib}, 12 cells, at 15 of Class W's 30 iterations. One repetition then
// takes one to two seconds, so a 30-second run holds 10-25 repetitions
// for its median (README.md, "Bounds"); the whole `sweep -all -class W`
// takes 10-20 s, one sample per run.
var (
	figure4 = []upmgo.SweepKind{upmgo.KindFigure4}
	btOnly  = []string{"BT"}
)

const btIters = 15

// workloads is the benchmark's workload table; BENCHMARK.json names the
// same workloads in the same order (bench_test.go checks it).
var workloads = []workload{
	{
		Name: "w16-steady",
		Why:  "sweep -fig 4 -class W -benches BT -iters 15 -steady at the paper's 16-thread width: steady detection, extrapolation, the verify cache, prefix forking",
		Reps: 20, Kinds: figure4,
		Opts: upmgo.SweepOptions{Class: upmgo.ClassW, Benches: btOnly, Iterations: btIters, Steady: true, Extrapolate: true},
	},
	{
		Name: "w16-full",
		Why:  "the same 12 cells fully simulated: the memsys/machine hot path at full strength, bypassing the steady fast-forward",
		Reps: 15, Kinds: figure4,
		Opts: upmgo.SweepOptions{Class: upmgo.ClassW, Benches: btOnly, Iterations: btIters},
	},
	{
		Name: "w1-steady",
		Why:  "the same cells with -threads 1: the bit-reproducible single-CPU control, checked against exact reference digests",
		Reps: 20, Kinds: figure4,
		Opts: upmgo.SweepOptions{Class: upmgo.ClassW, Benches: btOnly, Iterations: btIters, Threads: 1, Steady: true, Extrapolate: true},
	},
	{
		Name: "wide-s",
		Why:  "sweep -toposcale -topo hier256 -class S into a fresh store, then warm: 60 short cells on 256 CPUs, where set-up, fork/join, GC and the store dominate",
		Reps: 20, Kinds: []upmgo.SweepKind{upmgo.KindTopoScale},
		Opts:  upmgo.SweepOptions{Class: upmgo.ClassS, Topo: "hier256"},
		Store: true,
	},
}

// workerEnv carries a workerSpec (as JSON) to a re-executed harness
// process, which then runs as a worker instead of a harness.
const workerEnv = "UPMBENCH_WORKER"

// workerSpec is one job for a worker process: a timed repetition of a
// workload ("rep") or the layer probes ("probe").
type workerSpec struct {
	Mode     string   `json:"mode"`
	Workload workload `json:"workload"`
	Seed     uint64   `json:"seed"`
	Jobs     int      `json:"jobs"`
	Dir      string   `json:"dir"`               // scratch directory, removed by the harness
	Out      string   `json:"out"`               // where the worker writes its JSON result
	Profile  string   `json:"profile,omitempty"` // CPU profile of the sweeps (traced rep)
	Trace    string   `json:"trace,omitempty"`   // Chrome trace of the sweeps (traced rep)
	// Spawned is when the harness started the worker (Unix nanoseconds),
	// the start of the repetition's start-up time.
	Spawned int64 `json:"spawned,omitempty"`
}

// workerMain runs the job in blob and writes its result to spec.Out. A
// failing cell is a result, not a worker error: only an environment
// failure (unwritable scratch space, a bad spec) makes it exit non-zero.
func workerMain(blob string, stderr io.Writer) int {
	var spec workerSpec
	if err := json.Unmarshal([]byte(blob), &spec); err != nil {
		fmt.Fprintf(stderr, "bench worker: bad spec: %v\n", err)
		return 1
	}
	var out any
	var err error
	switch spec.Mode {
	case "rep":
		out, err = runRep(context.Background(), spec)
	case "probe":
		out, err = probeLayers(spec)
	default:
		err = fmt.Errorf("unknown mode %q", spec.Mode)
	}
	if err == nil {
		err = writeJSON(spec.Out, out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench worker: %s %s: %v\n", spec.Mode, spec.Workload.Name, err)
		return 1
	}
	return 0
}

// repResult is what one repetition measured.
type repResult struct {
	// SweepS is the wall time across the repetition's Sweep calls.
	SweepS float64 `json:"sweep_s"`
	// StartupS is the wall time from the worker's spawn to its first Sweep
	// call: process start, runtime and package initialisation, cache and
	// store set-up.
	StartupS float64 `json:"startup_s"`
	// CalS is the calibration kernel's mean wall time just before the
	// worker started and just after it ended, filled by the harness.
	CalS float64 `json:"cal_s"`
	// MaxRSSMB is the worker's peak resident set, filled by the harness.
	MaxRSSMB float64 `json:"max_rss_mb"`
	// Attempted counts finished cell requests (recalls included); Failed
	// names each failed one. SweepErrs holds each failed Sweep call's error.
	Attempted int      `json:"attempted"`
	Failed    []string `json:"failed,omitempty"`
	SweepErrs []string `json:"sweep_errors,omitempty"`
	// CellHostS holds the host seconds of every cell this repetition
	// simulated (not recalled).
	CellHostS []float64         `json:"cell_host_s"`
	Report    upmgo.SweepReport `json:"report"`
	Cache     cacheCounts       `json:"cache"`
	// Cells describes every unique cell, in presentation order.
	Cells []cellResult `json:"cells"`
	// Store workloads only: the warm re-run's wall time, and the cells
	// whose recalled result differs from the simulated one.
	RecallS        float64  `json:"recall_s,omitempty"`
	RecallMismatch []string `json:"recall_mismatch,omitempty"`
}

// cacheCounts is the part of upmgo.SweepCacheStats the metrics use.
type cacheCounts struct {
	Hits, DiskHits, Misses, Forked, Prefixes uint64
}

// cellResult describes one unique cell of a repetition.
type cellResult struct {
	Name    string `json:"name"` // "BT ft-IRIX classW", "+ x4" for scaled cells
	Address string `json:"address"`
	// Digest is the SHA-256 of the cell's canonical nas.Result JSON — the
	// payload_sha256 of its store record, without the envelope.
	Digest    string             `json:"digest"`
	Bench     string             `json:"bench"`
	Label     string             `json:"label"`
	Scale     int                `json:"scale,omitempty"`
	VirtualS  float64            `json:"virtual_s"`
	Iters     int                `json:"iters"`
	FastIters int                `json:"fast_iters"` // extrapolated or campaign-drained
	Mach      upmgo.MachineStats `json:"mach"`
	KmigMoves int64              `json:"kmig_moves"`
	UPMMoves  int64              `json:"upm_moves"`
	// Kind and TimedLoopS come from the report of the run that simulated
	// the cell.
	Kind       upmgo.FastPathKind `json:"kind"`
	TimedLoopS float64            `json:"timed_loop_s"`
}

// runRep runs one repetition of spec.Workload in this process.
func runRep(ctx context.Context, spec workerSpec) (repResult, error) {
	var res repResult
	w := spec.Workload
	o := w.Opts
	o.Seed = spec.Seed
	storeDir := filepath.Join(spec.Dir, "store")
	cache := upmgo.NewSweepCache()
	if w.Store {
		st, err := upmgo.OpenResultStore(storeDir)
		if err != nil {
			return res, err
		}
		cache.SetStore(st)
	}
	rec := newRecorder(spec.Trace != "")
	r := upmgo.SweepRunner{Jobs: spec.Jobs, Cache: cache, OnEvent: rec.event}

	if spec.Profile != "" {
		f, err := os.Create(spec.Profile)
		if err != nil {
			return res, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return res, err
		}
	}
	if spec.Spawned != 0 {
		res.StartupS = time.Since(time.Unix(0, spec.Spawned)).Seconds()
	}
	for _, kind := range w.Kinds {
		rec.beginSweep()
		start := time.Now()
		_, err := r.Sweep(ctx, upmgo.SweepRequest{Kind: kind, Options: o})
		d := time.Since(start)
		res.SweepS += d.Seconds()
		rec.span(string(kind), "sweep", start, d, 0, nil)
		if err != nil {
			res.SweepErrs = append(res.SweepErrs, fmt.Sprintf("%s: %v", kind, err))
		}
	}
	if spec.Profile != "" {
		pprof.StopCPUProfile()
	}

	cs := cache.Stats()
	res.Cache = cacheCounts{cs.Hits, cs.DiskHits, cs.Misses, cs.Forked, cs.Prefixes}
	res.Attempted = rec.attempted
	res.Failed = rec.failed
	res.CellHostS = rec.simHost
	res.Report = upmgo.BuildSweepReport(rec.reports, 0)
	if spec.Trace != "" {
		if err := rec.writeChrome(spec.Trace); err != nil {
			return res, err
		}
	}
	if len(res.SweepErrs) > 0 {
		// The cache lacks the failed cells; describing them would
		// simulate them outside the timed sweep.
		return res, nil
	}
	cells, err := uniqueCells(ctx, cache, w.Kinds, o, rec.simulated)
	if err != nil {
		return res, err
	}
	res.Cells = cells
	if w.Store {
		return res, recallWarm(ctx, spec, o, storeDir, &res)
	}
	return res, nil
}

// recallWarm re-runs the workload from the store the timed sweep wrote,
// with a fresh cache, and checks every recalled cell against the
// simulated one.
func recallWarm(ctx context.Context, spec workerSpec, o upmgo.SweepOptions, dir string, res *repResult) error {
	st, err := upmgo.OpenResultStore(dir)
	if err != nil {
		return err
	}
	cache := upmgo.NewSweepCache()
	cache.SetStore(st)
	r := upmgo.SweepRunner{Jobs: spec.Jobs, Cache: cache}
	start := time.Now()
	for _, kind := range spec.Workload.Kinds {
		if _, err := r.Sweep(ctx, upmgo.SweepRequest{Kind: kind, Options: o}); err != nil {
			res.RecallMismatch = append(res.RecallMismatch, fmt.Sprintf("warm %s: %v", kind, err))
			return nil
		}
	}
	res.RecallS = time.Since(start).Seconds()
	warm, err := uniqueCells(ctx, cache, spec.Workload.Kinds, o, nil)
	if err != nil {
		return err
	}
	for i, c := range warm {
		if c.Digest != res.Cells[i].Digest {
			res.RecallMismatch = append(res.RecallMismatch, c.Name+": recalled result differs from the simulated one")
		}
	}
	return nil
}

// uniqueCells recalls every unique cell of the sweeps from the cache, in
// presentation order, and describes it. Every cell is already cached, so
// nothing simulates. sims maps a cell's memo key to the report of the run
// that simulated it (nil: leave Kind and TimedLoopS empty).
func uniqueCells(ctx context.Context, cache *upmgo.SweepCache, kinds []upmgo.SweepKind,
	o upmgo.SweepOptions, sims map[string]*upmgo.CellReport) ([]cellResult, error) {
	seen := map[string]bool{}
	var specs []upmgo.SweepCellSpec
	var keys []string
	for _, kind := range kinds {
		ss, err := upmgo.SweepSpecs(upmgo.SweepRequest{Kind: kind, Options: o})
		if err != nil {
			return nil, err
		}
		for _, s := range ss {
			key, ok := s.Key()
			if !ok || seen[key] {
				continue
			}
			seen[key] = true
			specs = append(specs, s)
			keys = append(keys, key)
		}
	}
	cells, err := upmgo.SweepRunner{Jobs: 1, Cache: cache}.Cells(ctx, specs)
	if err != nil {
		return nil, err
	}
	out := make([]cellResult, len(cells))
	for i, c := range cells {
		payload, err := json.Marshal(c.Result)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(payload)
		r := c.Result
		cr := cellResult{
			Name:    fmt.Sprintf("%s %s class%s", c.Bench, c.Label, r.Class),
			Address: upmgo.StoreAddress(keys[i]), Digest: hex.EncodeToString(sum[:]),
			Bench: c.Bench, Label: c.Label, VirtualS: c.Seconds(),
			Iters: len(r.IterPS), FastIters: r.ExtrapolatedIters + r.CampaignIters,
			Mach: r.Mach, KmigMoves: r.KmigMoves,
			UPMMoves: r.UPM.Migrations + r.UPM.ReplayMigrations,
		}
		if s := specs[i].Config.ComputeScale; s > 1 {
			cr.Scale = s
			cr.Name += fmt.Sprintf(" x%d", s)
		}
		if rep := sims[keys[i]]; rep != nil {
			cr.Kind, cr.TimedLoopS = rep.Kind, rep.Stages.TimedLoop
		}
		out[i] = cr
	}
	return out, nil
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
