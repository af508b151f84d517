package nas_test

import (
	"reflect"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/vm"
)

// TestBulkScalarEquivalence is the golden contract of the bulk-access fast
// path: simulating a contiguous run one coherence unit at a time must be an
// *accounting* optimisation only. For every benchmark, both placement
// extremes, the full Class S run under Config.ScalarRuns=true (per-element
// simulation) and the default bulk path must agree bit-for-bit on every
// virtual-time figure and every hardware counter, at the full team width.
func TestBulkScalarEquivalence(t *testing.T) {
	builders := []struct {
		name  string
		build nas.Builder
	}{
		{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New},
		{"MG", mg.New}, {"FT", ft.New},
	}
	for _, b := range builders {
		for _, p := range []vm.Policy{vm.FirstTouch, vm.WorstCase} {
			t.Run(b.name+"/"+p.String(), func(t *testing.T) {
				run := func(scalar bool) nas.Result {
					r, err := nas.Run(b.build, nas.Config{
						Class:     nas.ClassS,
						Placement: p,
						Tweak: func(mc *machine.Config) {
							mc.ScalarRuns = scalar
						},
					})
					if err != nil {
						t.Fatalf("scalar=%v: %v", scalar, err)
					}
					if !r.Verified {
						t.Fatalf("scalar=%v: verification failed: %v", scalar, r.VerifyErr)
					}
					return r
				}
				bulk, scal := run(false), run(true)
				if bulk.TotalPS != scal.TotalPS {
					t.Errorf("TotalPS: bulk %d, scalar %d", bulk.TotalPS, scal.TotalPS)
				}
				if bulk.ColdPS != scal.ColdPS {
					t.Errorf("ColdPS: bulk %d, scalar %d", bulk.ColdPS, scal.ColdPS)
				}
				for i := range bulk.IterPS {
					if i < len(scal.IterPS) && bulk.IterPS[i] != scal.IterPS[i] {
						t.Errorf("IterPS[%d]: bulk %d, scalar %d", i, bulk.IterPS[i], scal.IterPS[i])
					}
				}
				if len(bulk.IterPS) != len(scal.IterPS) {
					t.Errorf("iterations: bulk %d, scalar %d", len(bulk.IterPS), len(scal.IterPS))
				}
				if bulk.Mach != scal.Mach {
					t.Errorf("machine stats diverge:\n bulk   %+v\n scalar %+v", bulk.Mach, scal.Mach)
				}
			})
		}
	}
}

// BenchmarkBTChargingMode times the same BT Class S run under both
// charging modes; the ratio is the host-side payoff of the fast path.
func BenchmarkBTChargingMode(b *testing.B) {
	for _, mode := range []struct {
		name   string
		scalar bool
	}{{"bulk", false}, {"scalar", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := nas.Run(bt.New, nas.Config{
					Class:     nas.ClassS,
					Placement: vm.FirstTouch,
					Tweak: func(mc *machine.Config) {
						mc.ScalarRuns = mode.scalar
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFullWidthRunsReproduce: two fresh runs of the same config at the
// paper's full team width return equal Results — the omp runtime drives
// the members in a fixed order, so no host scheduling leaks into the
// simulation.
func TestFullWidthRunsReproduce(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Seed: 42} // Threads 0: all 16 CPUs
	a, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("full-width runs differ:\n first  %+v\n second %+v", a, b)
	}
}
