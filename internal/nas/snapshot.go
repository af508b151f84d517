package nas

import (
	"fmt"

	"upmgo/internal/machine"
	"upmgo/internal/omp"
)

// Prefix is a reusable checkpoint of one benchmark's engine-independent
// cold start: the simulated machine exactly at the divergence point where
// Run would arm the migration engines (after allocation, initialisation,
// the serial first-touch iteration, Reinit and the counter reset).
//
// A Prefix is immutable once built — RunFromSnapshot only ever clones the
// held machine — so one Prefix may serve concurrent forks. The kernel's
// host-side data is not part of the snapshot: kernel builders are
// deterministic in (class, scale, seed) and allocate sequentially, so
// each fork rebuilds its kernel on the clone at identical addresses, and
// a freshly built kernel's data equals a Reinit'd one by the Kernel
// contract.
type Prefix struct {
	build Builder
	key   string
	cfg   Config // the prefix-relevant fields, canonicalised
	snap  *machine.Machine
}

// RunPrefix simulates the engine-independent prefix of cfg once and
// returns it as a reusable checkpoint. Configs that cannot be canonically
// keyed (a Tweak function, a Tracer or a Metrics sampler — see
// Config.PrefixFingerprint) are rejected: forks must be provably
// interchangeable with from-scratch runs, and those fields break the
// equivalence.
func RunPrefix(build Builder, cfg Config) (*Prefix, error) {
	key, ok := cfg.PrefixFingerprint()
	if !ok {
		return nil, fmt.Errorf("nas: config with a Tweak, Tracer or Metrics cannot be snapshotted")
	}
	m, _, _, err := runPrefix(build, cfg)
	if err != nil {
		return nil, err
	}
	return &Prefix{build: build, key: key, cfg: cfg, snap: m}, nil
}

// Key returns the prefix's canonical fingerprint
// (Config.PrefixFingerprint of the config it was built from).
func (p *Prefix) Key() string { return p.key }

// RunFromSnapshot forks the checkpoint and runs cfg's timed main loop and
// verification on the fork: arm engines, iterate, verify — everything Run
// does after the divergence point. cfg must have the same prefix
// fingerprint as the config the Prefix was built from; the engine fields
// are free. The returned Result is bit-identical to Run(build, cfg) from
// scratch (the snapshot invariant, see DESIGN.md §8).
func (p *Prefix) RunFromSnapshot(cfg Config) (Result, error) {
	key, ok := cfg.PrefixFingerprint()
	if !ok {
		return Result{}, fmt.Errorf("nas: config with a Tweak, Tracer or Metrics cannot fork a snapshot")
	}
	if key != p.key {
		return Result{}, fmt.Errorf("nas: config prefix %q does not match snapshot prefix %q", key, p.key)
	}
	cfg.HostStages.lap(stageFork)
	defer cfg.HostStages.lap(stageNone)
	m := p.snap.Clone()
	// Rebuild the kernel on the clone: the builder re-runs the exact
	// allocation sequence of the prefix on the rewound heap, giving every
	// array its original address while binding the rebuilt host data to
	// the clone.
	m.RewindHeap()
	scale := cfg.ComputeScale
	if scale < 1 {
		scale = 1
	}
	k := p.build(m, cfg.Class, scale, cfg.Seed)
	if got, want := m.AllocatedPages(), p.snap.AllocatedPages(); got != want {
		return Result{}, fmt.Errorf("nas: %s fork rebuilt %d pages, prefix allocated %d (non-deterministic builder?)",
			k.Name(), got, want)
	}
	threads := cfg.Threads
	if threads == 0 {
		threads = m.NumCPUs()
	}
	// A fresh team is equivalent to the prefix's team at the divergence
	// point: its first region settles the master's serial section from
	// lastJoin 0 instead of the cold-start join time, but with zeroed
	// per-node tallies the settlement is start-independent (zero accesses
	// mean zero queueing delay and a zero saturation floor).
	team, err := omp.NewTeam(m, threads)
	if err != nil {
		return Result{}, err
	}
	return runMain(m, k, team, cfg)
}
