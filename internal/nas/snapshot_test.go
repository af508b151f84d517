package nas_test

import (
	"reflect"
	"strings"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

// TestForkVsScratchBitIdentity is the golden contract of the snapshot
// subsystem: forking a cold-start prefix and running the timed loop on
// the clone must reproduce a from-scratch run of the same config exactly
// — every virtual time, every per-iteration span, every hardware counter,
// every engine statistic. One prefix per (benchmark, placement) serves
// all engine variants, which doubles as the sharing proof. It runs at
// the full team width: the omp runtime's fixed member interleaving makes
// every run exactly reproducible there too.
func TestForkVsScratchBitIdentity(t *testing.T) {
	builders := []struct {
		name  string
		build nas.Builder
	}{
		{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New},
		{"MG", mg.New}, {"FT", ft.New},
	}
	engines := []struct {
		name string
		set  func(c *nas.Config)
	}{
		{"plain", func(c *nas.Config) {}},
		{"kmig", func(c *nas.Config) { c.KernelMig = true }},
		{"upmlib", func(c *nas.Config) { c.UPM = nas.UPMDistribute }},
	}
	for _, b := range builders {
		for _, p := range []vm.Policy{vm.FirstTouch, vm.WorstCase} {
			t.Run(b.name+"/"+p.String(), func(t *testing.T) {
				base := nas.Config{Class: nas.ClassS, Placement: p}
				prefix, err := nas.RunPrefix(b.build, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range engines {
					cfg := base
					eng.set(&cfg)
					scratch, err := nas.Run(b.build, cfg)
					if err != nil {
						t.Fatalf("%s scratch: %v", eng.name, err)
					}
					forked, err := prefix.RunFromSnapshot(cfg)
					if err != nil {
						t.Fatalf("%s fork: %v", eng.name, err)
					}
					if !forked.Verified {
						t.Fatalf("%s fork failed verification: %v", eng.name, forked.VerifyErr)
					}
					if !reflect.DeepEqual(scratch, forked) {
						t.Errorf("%s: fork diverges from scratch at %s", eng.name, nas.Diverge(scratch, forked))
					}
				}
			})
		}
	}
}

// TestForkRecRepAndPerturbationBitIdentity covers the timed-loop features
// the basic engine matrix misses: record–replay hooks (BT has the phase
// change) and the mid-run scheduler perturbation with UPMlib reactivation.
// Both act strictly after the divergence point, so they too must fork
// bit-identically — from the very same prefix, since PrefixFingerprint
// ignores Iterations and PerturbAt.
func TestForkRecRepAndPerturbationBitIdentity(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1}
	prefix, err := nas.RunPrefix(bt.New, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []nas.Config{
		{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1, UPM: nas.UPMRecRep},
		{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
			UPM: nas.UPMDistribute, Iterations: 12, PerturbAt: 4},
	} {
		scratch, err := nas.Run(bt.New, cfg)
		if err != nil {
			t.Fatalf("%s scratch: %v", cfg.Label(), err)
		}
		forked, err := prefix.RunFromSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s fork: %v", cfg.Label(), err)
		}
		if !reflect.DeepEqual(scratch, forked) {
			t.Errorf("%s: fork diverges from scratch at %s", cfg.Label(), nas.Diverge(scratch, forked))
		}
	}
}

// TestSnapshotRejectsUnkeyableConfigs: Tweak and Tracer configs cannot be
// canonically keyed, so both snapshot entry points must refuse them, and
// a config whose prefix differs from the snapshot's must be refused too.
func TestSnapshotRejectsUnkeyableConfigs(t *testing.T) {
	tweaked := nas.Config{Class: nas.ClassS, Tweak: func(mc *machine.Config) {}}
	if _, err := nas.RunPrefix(bt.New, tweaked); err == nil {
		t.Error("RunPrefix accepted a Tweak config")
	}
	traced := nas.Config{Class: nas.ClassS, Tracer: trace.NewRecorder()}
	if _, err := nas.RunPrefix(bt.New, traced); err == nil {
		t.Error("RunPrefix accepted a Tracer config")
	}

	prefix, err := nas.RunPrefix(bt.New, nas.Config{Class: nas.ClassS, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prefix.RunFromSnapshot(traced); err == nil {
		t.Error("RunFromSnapshot accepted a Tracer config")
	}
	mismatched := nas.Config{Class: nas.ClassS, Threads: 1, Placement: vm.WorstCase}
	if _, err := prefix.RunFromSnapshot(mismatched); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Errorf("RunFromSnapshot on a mismatched prefix: %v", err)
	}
}

// TestPrefixFingerprintFieldSet pins the sharing contract: engine and
// timed-loop fields must not key the prefix (their variants share one
// cold start), while every field the prefix actually reads must.
func TestPrefixFingerprintFieldSet(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Placement: vm.RoundRobin, Threads: 1, Seed: 7}
	key := func(c nas.Config) string {
		k, ok := c.PrefixFingerprint()
		if !ok {
			t.Fatalf("config %+v not keyable", c)
		}
		return k
	}
	shared := []func(c *nas.Config){
		func(c *nas.Config) { c.KernelMig = true },
		func(c *nas.Config) { c.UPM = nas.UPMDistribute },
		func(c *nas.Config) { c.UPM = nas.UPMRecRep; c.UPMOptions.MaxCritical = 5 },
		func(c *nas.Config) { c.Kmig.Threshold = 99 },
		func(c *nas.Config) { c.Iterations = 3 },
		func(c *nas.Config) { c.PerturbAt = 2 },
		func(c *nas.Config) { c.SkipVerify = true },
		func(c *nas.Config) { c.ComputeScale = 1 }, // canonical with 0
	}
	for i, mut := range shared {
		c := base
		mut(&c)
		if key(c) != key(base) {
			t.Errorf("mutation %d changed the prefix key; engine fields must share", i)
		}
	}
	distinct := []func(c *nas.Config){
		func(c *nas.Config) { c.Class = nas.ClassW },
		func(c *nas.Config) { c.Placement = vm.WorstCase },
		func(c *nas.Config) { c.Seed = 8 },
		func(c *nas.Config) { c.ComputeScale = 4 },
		func(c *nas.Config) { c.Threads = 2 },
	}
	for i, mut := range distinct {
		c := base
		mut(&c)
		if key(c) == key(base) {
			t.Errorf("mutation %d kept the prefix key; prefix-relevant fields must split", i)
		}
	}
}
