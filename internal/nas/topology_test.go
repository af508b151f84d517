package nas_test

import (
	"reflect"
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// TestFingerprintGolden pins the fingerprint encoding byte-for-byte
// against strings captured before the topology refactor. If any of these
// change, every cache entry and store record ever written is orphaned —
// see Fingerprint's contract.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		cfg            nas.Config
		fp, prefix, lb string
	}{
		{
			nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch},
			`{Class:S Placement:ft KernelMig:false UPM:off UPMOptions:{Threshold:0 MinAccesses:0 MaxCritical:0 FreezeBounces:0 ScanCostPerPage:0} Kmig:{Threshold:0 MaxPerScan:0 ScanEvery:0 DecayEvery:0 MinScanPS:0} Threads:0 Iterations:0 ComputeScale:1 PerturbAt:0 Seed:0 Tweak:<nil> Tracer:<nil> Metrics:<nil> SkipVerify:false SteadyState:false Extrapolate:false SteadyWindow:0 TailCache:<nil>}`,
			"prefix\x00class=S placement=ft seed=0 scale=1 threads=0",
			"ft-IRIX",
		},
		{
			// Threads 1 pins how a set team size and seed encode; the
			// strings were captured with it.
			nas.Config{Class: nas.ClassS, Placement: vm.RoundRobin, UPM: nas.UPMDistribute, Threads: 1, Seed: 42},
			`{Class:S Placement:rr KernelMig:false UPM:upmlib UPMOptions:{Threshold:0 MinAccesses:0 MaxCritical:0 FreezeBounces:0 ScanCostPerPage:0} Kmig:{Threshold:0 MaxPerScan:0 ScanEvery:0 DecayEvery:0 MinScanPS:0} Threads:1 Iterations:0 ComputeScale:1 PerturbAt:0 Seed:42 Tweak:<nil> Tracer:<nil> Metrics:<nil> SkipVerify:false SteadyState:false Extrapolate:false SteadyWindow:0 TailCache:<nil>}`,
			"prefix\x00class=S placement=rr seed=42 scale=1 threads=1",
			"rr-upmlib",
		},
		{
			nas.Config{Class: nas.ClassW, Placement: vm.WorstCase, KernelMig: true, Iterations: 7, ComputeScale: 3},
			`{Class:W Placement:wc KernelMig:true UPM:off UPMOptions:{Threshold:0 MinAccesses:0 MaxCritical:0 FreezeBounces:0 ScanCostPerPage:0} Kmig:{Threshold:0 MaxPerScan:0 ScanEvery:0 DecayEvery:0 MinScanPS:0} Threads:0 Iterations:7 ComputeScale:3 PerturbAt:0 Seed:0 Tweak:<nil> Tracer:<nil> Metrics:<nil> SkipVerify:false SteadyState:false Extrapolate:false SteadyWindow:0 TailCache:<nil>}`,
			"prefix\x00class=W placement=wc seed=0 scale=3 threads=0",
			"wc-IRIXmig",
		},
		{
			nas.Config{Class: nas.ClassA, Placement: vm.Random, SteadyState: true, Extrapolate: true, SteadyWindow: 5},
			`{Class:A Placement:rand KernelMig:false UPM:off UPMOptions:{Threshold:0 MinAccesses:0 MaxCritical:0 FreezeBounces:0 ScanCostPerPage:0} Kmig:{Threshold:0 MaxPerScan:0 ScanEvery:0 DecayEvery:0 MinScanPS:0} Threads:0 Iterations:0 ComputeScale:1 PerturbAt:0 Seed:0 Tweak:<nil> Tracer:<nil> Metrics:<nil> SkipVerify:false SteadyState:true Extrapolate:true SteadyWindow:5 TailCache:<nil>}`,
			"prefix\x00class=A placement=rand seed=0 scale=1 threads=0",
			"rand-IRIX",
		},
		{
			// Every encoded field non-zero, the nested engine options
			// included, and a non-default shape; captured before the
			// encoder named its fields explicitly.
			nas.Config{Class: nas.ClassW, Placement: vm.WorstCase, KernelMig: true, UPM: nas.UPMRecRep,
				UPMOptions: upm.Options{Threshold: 1.5, MinAccesses: 8, MaxCritical: 30, FreezeBounces: 2, ScanCostPerPage: 450000},
				Kmig:       kmig.Config{Threshold: 48, MaxPerScan: 6, ScanEvery: 2, DecayEvery: -1, MinScanPS: -1},
				Threads:    8, Iterations: 9, ComputeScale: 3, PerturbAt: 4, Seed: 7, SkipVerify: true,
				SteadyState: true, Extrapolate: true, SteadyWindow: 4, Topo: "hier64"},
			`{Class:W Placement:wc KernelMig:true UPM:recrep UPMOptions:{Threshold:1.5 MinAccesses:8 MaxCritical:30 FreezeBounces:2 ScanCostPerPage:450000} Kmig:{Threshold:48 MaxPerScan:6 ScanEvery:2 DecayEvery:-1 MinScanPS:-1} Threads:8 Iterations:9 ComputeScale:3 PerturbAt:4 Seed:7 Tweak:<nil> Tracer:<nil> Metrics:<nil> SkipVerify:true SteadyState:true Extrapolate:true SteadyWindow:4 TailCache:<nil>} topo=4x2x8`,
			"prefix\x00class=W placement=wc seed=7 scale=3 threads=8 topo=4x2x8",
			"wc-recrep@4x2x8",
		},
	}
	for i, c := range cases {
		fp, ok := c.cfg.Fingerprint()
		if !ok {
			t.Fatalf("case %d: not memoizable", i)
		}
		if fp != c.fp {
			t.Errorf("case %d: fingerprint drifted:\n got %q\nwant %q", i, fp, c.fp)
		}
		pfp, ok := c.cfg.PrefixFingerprint()
		if !ok || pfp != c.prefix {
			t.Errorf("case %d: prefix fingerprint drifted:\n got %q\nwant %q", i, pfp, c.prefix)
		}
		if lb := c.cfg.Label(); lb != c.lb {
			t.Errorf("case %d: label drifted: got %q, want %q", i, lb, c.lb)
		}
	}
}

// TestTopoFingerprintCompatibility: a shape cube-equivalent to the
// class's default machine canonicalises away — same fingerprint, same
// prefix key, same label — so the hierarchy-expressed Origin shares every
// historical cache entry and store record. Non-equivalent shapes get a
// canonical suffix instead, under every spelling.
func TestTopoFingerprintCompatibility(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch}
	cube := base
	cube.Topo = "cube:2x2x2" // class S runs 4 nodes × 2 CPUs
	bfp, _ := base.Fingerprint()
	cfp, ok := cube.Fingerprint()
	if !ok || cfp != bfp {
		t.Errorf("cube-equivalent shape changed the fingerprint:\n%q\n%q", cfp, bfp)
	}
	bpf, _ := base.PrefixFingerprint()
	cpf, _ := cube.PrefixFingerprint()
	if cpf != bpf {
		t.Errorf("cube-equivalent shape changed the prefix fingerprint:\n%q\n%q", cpf, bpf)
	}
	if cube.Label() != base.Label() {
		t.Errorf("cube-equivalent shape changed the label: %q vs %q", cube.Label(), base.Label())
	}

	// The paper machine's shape is class-relative: origin (8 nodes) is
	// NOT the class-S machine (4 nodes), so it keys separately there...
	origin := base
	origin.Topo = "origin"
	ofp, _ := origin.Fingerprint()
	if ofp == bfp {
		t.Error("origin (8 nodes) collided with the class-S default (4 nodes)")
	}
	// ...but is exactly the class-W/A default.
	baseW := nas.Config{Class: nas.ClassW, Placement: vm.FirstTouch}
	originW := baseW
	originW.Topo = "origin"
	wfp, _ := baseW.Fingerprint()
	owfp, _ := originW.Fingerprint()
	if owfp != wfp {
		t.Errorf("origin preset did not fold into the class-W default:\n%q\n%q", owfp, wfp)
	}

	// Non-equivalent shapes carry a canonical suffix: every spelling of
	// one shape shares one key, and labels grow the @shape suffix.
	h := base
	h.Topo = "hier64"
	hfp, _ := h.Fingerprint()
	if hfp != bfp+" topo=4x2x8" {
		t.Errorf("hier64 fingerprint suffix wrong: %q", hfp)
	}
	h2 := base
	h2.Topo = "4x2x8"
	h2fp, _ := h2.Fingerprint()
	if h2fp != hfp {
		t.Errorf("preset and spec spellings of one shape diverge:\n%q\n%q", hfp, h2fp)
	}
	if h.Label() != "ft-IRIX@4x2x8" {
		t.Errorf("hier64 label = %q, want ft-IRIX@4x2x8", h.Label())
	}
	hpf, _ := h.PrefixFingerprint()
	bpfWant := bpf + " topo=4x2x8"
	if hpf != bpfWant {
		t.Errorf("hier64 prefix fingerprint = %q, want %q", hpf, bpfWant)
	}
}

// TestHierarchyBitIdentity: the Origin spelled as a cube shape
// (cube:2x2x2) is the default machine — the shape's levels and the
// default's topology.Cube build the same hierarchy — so every
// virtual-time quantity, counter and page-home outcome is bit-identical
// to the run without a shape. That is what makes it sound for the
// fingerprint to fold such shapes into the default's key.
// cmd/sweep's TestRunTopoBitIdentity proves the same at the CLI/store
// level; CI runs both under -race.
func TestHierarchyBitIdentity(t *testing.T) {
	engines := []nas.Config{
		{},
		{KernelMig: true},
		{UPM: nas.UPMDistribute},
	}
	for _, p := range vm.Policies {
		for _, eng := range engines {
			cfg := eng
			cfg.Class = nas.ClassS
			cfg.Placement = p
			cfg.Seed = 42

			hier := cfg
			hier.Topo = "cube:2x2x2"

			want, err := nas.Run(bt.New, cfg)
			if err != nil {
				t.Fatalf("%s default: %v", cfg.Label(), err)
			}
			got, err := nas.Run(bt.New, hier)
			if err != nil {
				t.Fatalf("%s cube shape: %v", cfg.Label(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cube-shaped Origin diverged from the default run:\nshape   %+v\ndefault %+v",
					cfg.Label(), got, want)
			}
		}
	}
}

// TestHierarchyBitIdentityRecRep covers the record–replay protocol (CG
// has no phase, BT does) plus a second kernel's numerics.
func TestHierarchyBitIdentityRecRep(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.WorstCase, UPM: nas.UPMRecRep}
	hier := cfg
	hier.Topo = "cube:2x2x2"
	want, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nas.Run(bt.New, hier)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recrep: cube-shaped run diverged from the default run")
	}

	ccfg := nas.Config{Class: nas.ClassS, Placement: vm.RoundRobin, KernelMig: true}
	chier := ccfg
	chier.Topo = "cube:2x2x2"
	cwant, err := nas.Run(cg.New, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cgot, err := nas.Run(cg.New, chier)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cgot, cwant) {
		t.Errorf("CG: cube-shaped run diverged from the default run")
	}
}

// TestHierarchical64CPURun: a 64-CPU 4-socket machine runs a kernel end
// to end — placement still orders ft < wc, and the worst-case run's pages
// concentrate remotely, so the machine model scales past the Origin2000.
func TestHierarchical64CPURun(t *testing.T) {
	ft, err := nas.Run(cg.New, nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Topo: "hier64"})
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Verified {
		t.Fatalf("hier64 ft run failed verification: %v", ft.VerifyErr)
	}
	if ft.Label != "ft-IRIX@4x2x8" {
		t.Errorf("label = %q, want ft-IRIX@4x2x8", ft.Label)
	}
	wc, err := nas.Run(cg.New, nas.Config{Class: nas.ClassS, Placement: vm.WorstCase, Topo: "hier64"})
	if err != nil {
		t.Fatal(err)
	}
	if !(ft.TotalPS < wc.TotalPS) {
		t.Errorf("hier64: ft (%d) not faster than wc (%d)", ft.TotalPS, wc.TotalPS)
	}
}
