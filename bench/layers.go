package main

import (
	"fmt"
	"path/filepath"
	"time"

	"upmgo"
	"upmgo/internal/machine"
	"upmgo/internal/memsys"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/omp"
)

// probeBatches is how many batches each probe times; it reports the
// median batch's per-operation time.
const probeBatches = 7

// perOp times n calls of op in each of probeBatches batches and returns
// the median batch's nanoseconds per call.
func perOp(n int, op func(i int)) float64 {
	ts := make([]float64, probeBatches)
	for b := range ts {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		ts[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ts)
}

// sink keeps probed results live so the compiler cannot drop the calls.
var sink any

// probeLayers times each layer's exported hot functions directly, on
// inputs that isolate the layer, so a per-layer change shows here even
// when the end-to-end sweeps hide it. Names match the per-layer metrics.
func probeLayers(spec workerSpec) (map[string]float64, error) {
	p := map[string]float64{}
	def := machine.DefaultConfig()

	// memsys: AccessLines over a resident footprint (half of L1, every line
	// hits) and a streaming one (4x L2, every line misses), 8-byte
	// elements, in 128-line calls; ns per line.
	const chunk = 128
	l1 := memsys.MustCache(def.L1Bytes, def.L1Line, def.L1Ways)
	hitLines, perL1 := def.L1Bytes/2/def.L1Line, def.L1Line/8
	sweepHit := func(int) {
		for a := 0; a < hitLines; a += chunk {
			l1.AccessLines(uint64(a*def.L1Line), chunk, perL1, perL1, perL1, 0, 0)
		}
	}
	sweepHit(0)
	p["memsys.access_lines_hit_ns"] = perOp(4000, sweepHit) / float64(hitLines)
	l2 := memsys.MustCache(def.L2Bytes, def.L2Line, def.L2Ways)
	missLines, perL2 := 4*def.L2Bytes/def.L2Line, def.L2Line/8
	sweepMiss := func(int) {
		for a := 0; a < missLines; a += chunk {
			l2.AccessLines(uint64(a*def.L2Line), chunk, perL2, perL2, perL2, 0, 0)
		}
	}
	sweepMiss(0)
	p["memsys.access_lines_miss_ns"] = perOp(8, sweepMiss) / float64(missLines)

	// memsys: LookupRun of 64 elements on one of 32 resident pages; ns per call.
	tlb := memsys.MustTLB(def.TLBEntries, def.TLBWays)
	p["memsys.tlb_lookup_run_ns"] = perOp(1_000_000, func(i int) { tlb.LookupRun(uint64(i%32), 0, 64) })

	m, err := machine.New(def)
	if err != nil {
		return nil, err
	}
	// vm: one saturating counter update per call over 1024 pages x all
	// nodes (far below saturation across every batch); ns per call.
	nodes := m.Topo.Nodes()
	p["vm.count_miss_n_ns"] = perOp(1_000_000, func(i int) { m.PT.CountMissN(uint64(i%1024), i%nodes, 1) })

	// machine: a 512-element LoadRun over an L1-resident array (ns per
	// call), and two CPUs on different nodes storing to one line in turn
	// (every store invalidates the other's copy; ns per store).
	a := m.NewArray("probe", 2048)
	c0, c1 := m.CPU(0), m.CPU(m.NumCPUs()-1)
	c0.LoadRun(a.Addr(0), a.Len(), 8)
	p["machine.load_run_ns"] = perOp(50_000, func(int) { c0.LoadRun(a.Addr(0), 512, 8) })
	line := m.NewArray("pingpong", 16).Addr(0)
	p["machine.store_shared_ns"] = perOp(200_000, func(i int) {
		if i%2 == 0 {
			c0.StoreRun(line, 1, 8)
		} else {
			c1.StoreRun(line, 1, 8)
		}
	})

	// machine: Clone of a BT-W machine at the prefix's divergence point
	// (allocated, first-touched by the serial cold-start iteration); ms.
	bm, err := btPrefixMachine(spec.Seed)
	if err != nil {
		return nil, err
	}
	p["machine.clone_ms"] = perOp(1, func(int) { sink = bm.Clone() }) / 1e6

	// omp: an empty parallel region, and one barrier inside a region, at
	// 16 threads (the Origin) and 256 (hier256); us.
	for _, t := range []struct {
		threads        int
		topo           string
		regions, waits int
	}{{16, "", 5000, 2000}, {256, "hier256", 100, 100}} {
		tm := m
		if t.topo != "" {
			mc := machine.DefaultConfig()
			if err := mc.SetTopology(t.topo); err != nil {
				return nil, err
			}
			if tm, err = machine.New(mc); err != nil {
				return nil, err
			}
		}
		team, err := omp.NewTeam(tm, t.threads)
		if err != nil {
			return nil, err
		}
		p[fmt.Sprintf("omp.fork_join_t%d_us", t.threads)] = perOp(t.regions, func(int) {
			team.Parallel(func(*omp.Thread) {})
		}) / 1e3
		p[fmt.Sprintf("omp.barrier_t%d_us", t.threads)] = perOp(1, func(int) {
			team.Parallel(func(tr *omp.Thread) {
				for i := 0; i < t.waits; i++ {
					tr.Barrier()
				}
			})
		}) / float64(t.waits) / 1e3
	}

	// nas: the public cold-start prefix of BT at Class W; ms.
	cfg := upmgo.NASConfig{Class: upmgo.ClassW, Seed: spec.Seed}
	var prefix *upmgo.NASPrefix
	p["nas.prefix_bt_w_ms"] = perOp(1, func(int) { prefix, err = upmgo.RunNASPrefix("BT", cfg) }) / 1e6
	if err != nil {
		return nil, err
	}

	// store: Put and Get of a real Class W record (BT ft-IRIX, its tail
	// extrapolated to keep the probe short); us per operation.
	cfg.SteadyState, cfg.Extrapolate = true, true
	res, err := prefix.RunFromSnapshot(cfg)
	if err != nil {
		return nil, err
	}
	st, err := upmgo.OpenResultStore(filepath.Join(spec.Dir, "probe-store"))
	if err != nil {
		return nil, err
	}
	const puts = 40
	key := func(i int) string { return fmt.Sprintf("probe\x00%d", i) }
	n := 0 // every Put writes a new record
	p["store.put_us"] = perOp(puts, func(int) {
		if perr := st.Put(key(n), "BT", res); perr != nil && err == nil {
			err = perr
		}
		n++
	}) / 1e3
	p["store.get_us"] = perOp(puts, func(i int) {
		r, gerr := st.Get(key(i))
		if gerr != nil && err == nil {
			err = gerr
		}
		sink = r
	}) / 1e3
	return p, err
}

// btPrefixMachine builds the machine a BT Class W prefix snapshot holds:
// the class machine with BT's arrays allocated and placed by the serial
// cold-start iteration, as nas.RunPrefix leaves it.
func btPrefixMachine(seed uint64) (*machine.Machine, error) {
	mc := machine.DefaultConfig()
	nas.ClassW.MachineTweak(&mc)
	mc.Seed = seed
	m, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	k := bt.New(m, nas.ClassW, 1, seed)
	team, err := omp.NewTeam(m, m.NumCPUs())
	if err != nil {
		return nil, err
	}
	team.SetSerial(true)
	k.InitTouch(team)
	k.Step(team, nil)
	return m, nil
}
