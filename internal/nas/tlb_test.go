package nas_test

import (
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/omp"
	"upmgo/internal/vm"
)

// A replay takes its TLB outcomes from the recording's residency bits and
// the generation each CPU saw at its previous lookup of a page (DESIGN.md
// §17). These tests stage the two ways a resident translation stops
// hitting, a migration and an eviction, on a kernel small enough to
// count its lookups.

// tlbKernel runs on a team of three: CPUs 0 and 1 share node 0 and CPU 2
// sits on node 1. Every call, thread 0 stores to the first element of
// each of its pages, which lie one TLB set apart; after a barrier thread
// 2 reads them back. Each read then misses L2 on the invalidation, so it
// reaches memory and looks its page up in CPU 2's TLB, in the same set
// every time.
type tlbKernel struct {
	a      *machine.Array
	pages  int
	stride int // elements between two pages of one TLB set
}

// tlbBuilder returns a Builder for a tlbKernel over pages pages.
func tlbBuilder(pages int) nas.Builder {
	return func(m *machine.Machine, _ nas.Class, _ int, _ uint64) nas.Kernel {
		sets := m.Cfg.TLBEntries / m.Cfg.TLBWays
		stride := sets * m.PageBytes() / 8
		return &tlbKernel{a: m.NewArray("tlb", pages*stride), pages: pages, stride: stride}
	}
}

func (k *tlbKernel) Name() string           { return "TLB" }
func (k *tlbKernel) DefaultIterations() int { return 6 }
func (k *tlbKernel) HasPhase() bool         { return false }
func (k *tlbKernel) Reinit()                {}
func (k *tlbKernel) Verify() error          { return nil }

func (k *tlbKernel) HotPages() [][2]uint64 {
	lo, hi := k.a.PageRange()
	return [][2]uint64{{lo, hi}}
}

func (k *tlbKernel) InitTouch(t *omp.Team) { k.Step(t, nil) }

func (k *tlbKernel) Step(t *omp.Team, _ *nas.Hooks) {
	t.ParallelNamed("tlb", func(tr *omp.Thread) {
		if tr.ID == 0 {
			for p := range k.pages {
				k.a.Set(tr.CPU, p*k.stride, float64(p))
			}
		}
		tr.Barrier()
		if tr.ID == 2 {
			for p := range k.pages {
				k.a.Get(tr.CPU, p*k.stride)
			}
		}
	})
}

// tlbRun records the tlbKernel over pages pages, checks that replaying
// cfg equals Run (plain and steady), and returns Run's Result.
func tlbRun(t *testing.T, pages int, cfg nas.Config) nas.Result {
	t.Helper()
	build := tlbBuilder(pages)
	s := record(t, build, cfg)
	replayMatchesRun(t, s, build, cfg)
	want, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestReplayTLBMigration: the kernel engine moves CPU 2's page to node 1
// between two of its lookups. The translation stays resident, but its
// generation changed, so Run takes one more TLB miss than the same cell
// without the engine, and the replay must take it too although its
// recording never migrated a page.
func TestReplayTLBMigration(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Threads: 3, Placement: vm.WorstCase}
	off := tlbRun(t, 1, cfg)
	// Every barrier scans and no count decays, so the page moves once
	// CPU 2's misses outnumber node 0's by more than one.
	cfg.KernelMig = true
	cfg.Kmig = kmig.Config{Threshold: 1, DecayEvery: -1, MinScanPS: -1}
	on := tlbRun(t, 1, cfg)
	if on.KmigMoves != 1 {
		t.Fatalf("kernel engine moved %d pages, want 1", on.KmigMoves)
	}
	if on.Mach.TLBMiss != off.Mach.TLBMiss+1 {
		t.Errorf("TLB misses %d with the migration, %d without; want one more", on.Mach.TLBMiss, off.Mach.TLBMiss)
	}
}

// TestReplayTLBEviction: nine pages share one eight-way TLB set, so
// every lookup finds its page evicted at an unchanged generation and
// misses, where eight pages miss only when first loaded. The replay
// must miss where Run does.
func TestReplayTLBEviction(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Threads: 3}
	fit := tlbRun(t, 8, cfg)
	evict := tlbRun(t, 9, cfg)
	// InitTouch, the cold start and the timed steps each read them all.
	calls := uint64(2 + len(evict.IterPS))
	if evict.Mach.TLBMiss < 9*calls {
		t.Errorf("nine pages in one set took %d TLB misses over %d calls, want at least %d", evict.Mach.TLBMiss, calls, 9*calls)
	}
	if fit.Mach.TLBMiss >= 8*calls {
		t.Errorf("eight pages in one set took %d TLB misses over %d calls; they fit", fit.Mach.TLBMiss, calls)
	}
}

// TestReplayTLBMissMatchesRun: for every benchmark the sweeps replay,
// under the worst-case placement that makes the engines move pages, a
// replay's TLB miss count is Run's, kernel migration and UPMlib alike.
func TestReplayTLBMissMatchesRun(t *testing.T) {
	for _, b := range []struct {
		name  string
		build nas.Builder
	}{{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New}, {"MG", mg.New}, {"FT", ft.New}} {
		t.Run(b.name, func(t *testing.T) {
			base := nas.Config{Class: nas.ClassS, Iterations: 4, Placement: vm.WorstCase}
			s := record(t, b.build, base)
			var moved int64
			for _, engine := range []string{"kmig", "upmlib"} {
				cfg := base
				if engine == "kmig" {
					cfg.KernelMig = true
				} else {
					cfg.UPM = nas.UPMDistribute
				}
				want, err := nas.Run(b.build, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Replay(cfg)
				if err != nil {
					t.Fatal(err)
				}
				moved += want.Mach.Migrations
				if got.Mach.TLBMiss != want.Mach.TLBMiss {
					t.Errorf("%s: replay took %d TLB misses, Run %d", engine, got.Mach.TLBMiss, want.Mach.TLBMiss)
				}
			}
			if moved == 0 {
				t.Error("no engine moved a page, so no generation changed")
			}
		})
	}
}
