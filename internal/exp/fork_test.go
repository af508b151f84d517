package exp

import (
	"reflect"
	"testing"

	"upmgo/internal/nas"
)

// TestRunnerPrefixSharing pins the fork economics on Figure 4: 12 cells
// per benchmark (4 placements × 3 engines) share 4 cold-start prefixes
// (one per placement), so every simulated cell is a fork and the prefix
// count shows the ~3× sharing the snapshot layer exists for.
func TestRunnerPrefixSharing(t *testing.T) {
	cache := NewCache()
	r := Runner{Jobs: 4, Cache: cache}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	if _, err := sweep(r, KindFigure4, o); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 12 || st.Forked != 12 || st.Prefixes != 4 {
		t.Errorf("Figure4 stats %+v, want 12 misses, 12 forked, 4 prefixes", st)
	}

	// Figure 1 is a subset: everything recalled, nothing new forked.
	if _, err := sweep(r, KindFigure1, o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 12 || st.Forked != 12 || st.Prefixes != 4 {
		t.Errorf("after Figure1 stats %+v, want no new simulations", st)
	}

	// Figure 5's recrep cell is engine-only novelty: one new cell, forked
	// from an already-held prefix — zero new cold starts.
	if _, err := sweep(r, KindFigure5, o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 13 || st.Forked != 13 || st.Prefixes != 4 {
		t.Errorf("after Figure5 stats %+v, want 13 misses, 13 forked, still 4 prefixes", st)
	}
}

// TestRunnerForkScratchEquivalence is the exp-layer acceptance
// invariant: at the paper's full team width, a Runner with a Cache
// (every cell forked from a shared prefix snapshot) and one without
// (every cell simulated from scratch by nas.Run) return bit-identical
// cells for the same sweep.
func TestRunnerForkScratchEquivalence(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"CG"}, Seed: 42}
	fork := Runner{Jobs: 4, Cache: NewCache()}
	f, err := sweep(fork, KindFigure4, o)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sweep(Runner{Jobs: 4}, KindFigure4, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, n) {
		t.Error("Figure4 cells differ between forked and from-scratch simulation")
	}
	if st := fork.Cache.Stats(); st.Forked != uint64(len(f.Cells)) {
		t.Errorf("forking runner forked %d of %d cells", st.Forked, len(f.Cells))
	}
}
