package nas_test

// System tests of the steady-state detector on a purpose-built
// synthetic kernel: a tiny L1-resident working set, an optional block of
// dead pages whose reference counters are seeded to stage a
// kernel-migration campaign, and an optional compute-time modulation with
// a chosen period to stage orbits longer than one iteration, which the
// detector must refuse. The NAS kernels cannot reach these regimes at
// test scale; the synthetic kernel pins the bit-identity contract exactly
// where the detector's corner cases live.

import (
	"fmt"
	"reflect"
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
	"upmgo/internal/vm"
)

// synthKernel satisfies nas.Kernel. Each Step reads the hot array (512
// bytes, L1-resident after the cold start) and charges a compute-time
// modulation of period workPeriod. At the first timed step it seeds the
// dead pages' reference-counter rows from node 1, staging a migration
// campaign the engine then works through at MaxPerScan pages per scan.
type synthKernel struct {
	m          *machine.Machine
	hot, dead  *machine.Array
	workPeriod int
	steps      int
	timed      bool // set by Reinit: the prefix's cold start is over
	seeded     bool
}

// synthBuilder returns a nas.Builder for a synthetic kernel with the given
// number of dead campaign pages and compute-modulation period (0 = uniform
// compute).
func synthBuilder(deadPages, workPeriod int) nas.Builder {
	return func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		k := &synthKernel{m: m, workPeriod: workPeriod}
		k.hot = m.NewArray("hot", 64)
		if deadPages > 0 {
			k.dead = m.NewArray("dead", deadPages*m.PageBytes()/8)
		}
		return k
	}
}

func (k *synthKernel) Name() string           { return "SYNTH" }
func (k *synthKernel) DefaultIterations() int { return 8 }
func (k *synthKernel) HasPhase() bool         { return false }

func (k *synthKernel) HotPages() [][2]uint64 {
	lo, hi := k.hot.PageRange()
	return [][2]uint64{{lo, hi}}
}

func (k *synthKernel) InitTouch(t *omp.Team) {
	t.ParallelNamed("init", func(tr *omp.Thread) {
		tr.For(0, 1, omp.Static(), func(c *machine.CPU, from, to int) {
			for i := range k.hot.MutRun(c, 0, k.hot.Len()) {
				_ = i
			}
			if k.dead != nil {
				// Home the dead pages on the toucher's node; they are never
				// accessed again, so their rows change only by seeding.
				for base := 0; base < k.dead.Len(); base += k.m.PageBytes() / 8 {
					k.dead.MutRun(c, base, 1)
				}
			}
		})
	})
}

func (k *synthKernel) Reinit() { k.steps = 0; k.timed = true }

func (k *synthKernel) Step(t *omp.Team, h *nas.Hooks) {
	k.steps++
	if k.timed && !k.seeded && k.dead != nil {
		// Stage the campaign: every dead page looks heavily referenced from
		// node 1. Host-side seeding, not simulated accesses — the compute
		// below never misses, so only the engine moves the page homes.
		lo, hi := k.dead.PageRange()
		for vpn := lo; vpn < hi; vpn++ {
			k.m.PT.CountMissN(vpn, 1, 255)
		}
		k.seeded = true
	}
	extra := 0
	if k.workPeriod > 1 && k.steps%k.workPeriod == 0 {
		extra = 5000
	}
	t.ParallelNamed("work", func(tr *omp.Thread) {
		tr.For(0, 1, omp.Static(), func(c *machine.CPU, from, to int) {
			for pass := 0; pass < 4; pass++ {
				k.hot.GetRun(c, 0, k.hot.Len())
			}
			c.Flops(100 + extra)
		})
	})
}

func (k *synthKernel) Verify() error {
	if k.steps == 0 {
		return fmt.Errorf("synth: no steps executed")
	}
	return nil
}

// runPair runs the same cell fully simulated and with the steady-state
// machinery on, and requires the results to be bit-identical outside the
// detection metadata.
func runPair(t *testing.T, build nas.Builder, cfg nas.Config) (plain, steady nas.Result) {
	t.Helper()
	plain, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	scfg := cfg
	scfg.SteadyState, scfg.Extrapolate = true, true
	steady, err = nas.Run(build, scfg)
	if err != nil {
		t.Fatalf("steady: %v", err)
	}
	if !reflect.DeepEqual(plain, maskSteady(steady)) {
		t.Errorf("steady run diverges from simulated:\n plain  %+v\n steady %+v", plain, steady)
	}
	return plain, steady
}

// campaignConfig is the staged-campaign cell: kernel engine on, no decay
// and no scan spacing so every barrier scans and the seeded rows persist
// until migrated — a pure throttled migration of the dead pages.
func campaignConfig(iters int) nas.Config {
	return nas.Config{
		Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: iters, KernelMig: true,
		Kmig: kmig.Config{DecayEvery: -1, MinScanPS: -1},
	}
}

// TestCampaignSimulatedUnderSteady: a kernel-migration campaign keeps the
// page-home map moving, so the detector cannot prove an orbit while it
// runs. The steady run must simulate the whole campaign — bit-identical
// to the plain run, no campaign iterations reported — and still detect
// and extrapolate the quiet orbit that follows it.
func TestCampaignSimulatedUnderSteady(t *testing.T) {
	const deadPages = 400 // ≈ 8 iterations of campaign at 3 scans × 16 pages
	plain, steady := runPair(t, synthBuilder(deadPages, 0), campaignConfig(16))
	if plain.KmigMoves != deadPages {
		t.Fatalf("staging failed: simulated run migrated %d of %d dead pages", plain.KmigMoves, deadPages)
	}
	if steady.CampaignIters != 0 || steady.CampaignAt != 0 {
		t.Errorf("steady run reports campaign iterations: at %d for %d", steady.CampaignAt, steady.CampaignIters)
	}
	if steady.SteadyAt == 0 {
		t.Errorf("post-campaign steady state not detected: %+v", steady)
	}
}

// TestSteadyPeriod3Compute: a kernel whose compute time cycles with period
// 3 settles on a period-3 orbit, which the period-one detector refuses:
// the run simulates in full, bit-identically, and the diagnosis calls
// the deltas aperiodic (no delta repeats the one before it).
func TestSteadyPeriod3Compute(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1, Iterations: 24}
	_, steady := runPair(t, synthBuilder(0, 3), cfg)
	if steady.SteadyAt != 0 || steady.ExtrapolatedIters != 0 {
		t.Fatalf("period-3 orbit fired the detector at iteration %d, %d extrapolated",
			steady.SteadyAt, steady.ExtrapolatedIters)
	}
	if w := steady.FastPath.WhyNot; w == nil || w.Reason != nas.WhyNotAperiodic {
		t.Errorf("WhyNot = %v, want reason %q", w, nas.WhyNotAperiodic)
	}
}

// TestSteadyPeriod9Adversary: no orbit is proven on a period-9
// reference string and the run falls back to full simulation,
// bit-identically (whynot_test.go checks its diagnosis). The window must exceed the
// cycle's flat stretch (8 identical iterations between modulated ones),
// otherwise the stretch itself satisfies the period-one rule — the
// detector proves repetition over the window, and a window shorter than
// the hidden cycle's quiet run is an explicitly weaker statement.
func TestSteadyPeriod9Adversary(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 30, SteadyWindow: 9}
	_, steady := runPair(t, synthBuilder(0, 9), cfg)
	if steady.SteadyAt != 0 {
		t.Errorf("period-9 stream fired the detector at iteration %d", steady.SteadyAt)
	}
	if steady.ExtrapolatedIters != 0 {
		t.Errorf("period-9 stream extrapolated %d iterations", steady.ExtrapolatedIters)
	}
}

// TestSteadyPeriod9EngineAdversary: the engine-side period-9 string. With
// three barriers per iteration and ScanEvery=27, scans land every ninth
// iteration; between scans the counter deltas are identical, so without
// the gate-phase hash the period-one rule would fire mid-cycle and
// extrapolate the engine's counters wrongly. The phase folded into the
// state hash makes every iteration of the 9-cycle distinct: the detector
// refuses and the run falls back to full simulation.
func TestSteadyPeriod9EngineAdversary(t *testing.T) {
	cfg := nas.Config{
		Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 30, KernelMig: true,
		Kmig: kmig.Config{ScanEvery: 27, DecayEvery: -1, MinScanPS: -1},
	}
	_, steady := runPair(t, synthBuilder(0, 0), cfg)
	if steady.SteadyAt != 0 {
		t.Errorf("engine period-9 cadence fired the detector at iteration %d", steady.SteadyAt)
	}
}

// TestSteadyPeriod2EngineCadence: kmig's ScanEvery gate makes the engine
// itself the source of the orbit — with one barrier per iteration and
// ScanEvery=2, scan activity alternates and the quiesced cell settles on
// a period-2 orbit. The gate phase in the state hash alternates with it,
// so the detector refuses, the run simulates in full, bit-identically,
// and the diagnosis blames the moving state hash.
func TestSteadyPeriod2EngineCadence(t *testing.T) {
	cfg := nas.Config{
		Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 24, KernelMig: true,
		Kmig: kmig.Config{ScanEvery: 2, DecayEvery: -1, MinScanPS: -1},
	}
	_, steady := runPair(t, synthBuilder(0, 0), cfg)
	if steady.SteadyAt != 0 || steady.ExtrapolatedIters != 0 {
		t.Fatalf("period-2 engine cadence fired the detector at iteration %d, %d extrapolated",
			steady.SteadyAt, steady.ExtrapolatedIters)
	}
	if w := steady.FastPath.WhyNot; w == nil || w.Reason != nas.WhyNotHomesMoving {
		t.Errorf("WhyNot = %v, want reason %q", w, nas.WhyNotHomesMoving)
	}
}
