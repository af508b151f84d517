package exp

import (
	"reflect"
	"testing"

	"upmgo/internal/nas"
)

// TestRunnerStreamSharing pins the replay economics on Figure 4: the 12
// cells of one benchmark (4 placements × 3 engines) share one L2-miss
// stream, whose recording answers the ft-IRIX cell and which the other
// 11 replay. No cell needs a cold-start prefix.
func TestRunnerStreamSharing(t *testing.T) {
	cache := NewCache()
	r := Runner{Jobs: 4, Cache: cache}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	if _, err := sweep(r, KindFigure4, o); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 12 || st.Streams != 1 || st.Replayed != 11 || st.Forked != 0 || st.Prefixes != 0 || st.StreamBytes == 0 {
		t.Errorf("Figure4 stats %+v, want 12 misses, 1 stream, 11 replayed, nothing forked", st)
	}
	// Figure 5's recrep cell is engine-only novelty: one more replay of
	// the same stream.
	if _, err := sweep(r, KindFigure5, o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 13 || st.Streams != 1 || st.Replayed != 12 {
		t.Errorf("after Figure5 stats %+v, want 13 misses, still 1 stream, 12 replayed", st)
	}
}

// TestRunnerSteadyStreamSharing pins the economics of steady cells: the
// stream's canonical cell is not steady, so a steady Figure 4 batch
// records the one stream and replays all 12 cells from it. Nothing forks.
func TestRunnerSteadyStreamSharing(t *testing.T) {
	cache := NewCache()
	r := Runner{Jobs: 4, Cache: cache}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42, Steady: true, Extrapolate: true}
	if _, err := sweep(r, KindFigure4, o); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 12 || st.Streams != 1 || st.Replayed != 12 || st.Forked != 0 || st.Prefixes != 0 {
		t.Errorf("Figure4 stats %+v, want 12 misses, 1 stream, 12 replayed, nothing forked", st)
	}
	// Figure 1 is a subset: everything recalled, nothing new replayed.
	if _, err := sweep(r, KindFigure1, o); err != nil {
		t.Fatal(err)
	}
	if st = cache.Stats(); st.Misses != 12 || st.Replayed != 12 {
		t.Errorf("after Figure1 stats %+v, want no new simulations", st)
	}
}

// TestRunnerForkScratchEquivalence is the exp-layer acceptance
// invariant: at the paper's full team width, a Runner with a Cache and
// one without (every cell simulated from scratch by nas.Run) return
// bit-identical cells for the same sweep — plain and steady cells, both
// of which replay one shared miss stream.
func TestRunnerForkScratchEquivalence(t *testing.T) {
	for _, steady := range []bool{false, true} {
		o := SweepOptions{Class: nas.ClassS, Benches: []string{"CG"}, Seed: 42, Steady: steady, Extrapolate: steady}
		cached := Runner{Jobs: 4, Cache: NewCache()}
		f, err := sweep(cached, KindFigure4, o)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sweep(Runner{Jobs: 4}, KindFigure4, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Cells {
			if d := nas.Diverge(n.Cells[i].Result, f.Cells[i].Result); d != "" {
				t.Errorf("steady=%v %s: cached cell diverges from scratch at %s", steady, f.Cells[i].Label, d)
			}
		}
		if !reflect.DeepEqual(f, n) {
			t.Errorf("steady=%v: Figure4 cells differ between cached and from-scratch simulation", steady)
		}
		st := cached.Cache.Stats()
		if steady && st.Replayed != uint64(len(f.Cells)) {
			t.Errorf("steady: replayed %d of %d cells, want all", st.Replayed, len(f.Cells))
		}
		if !steady && st.Replayed != uint64(len(f.Cells)-1) {
			t.Errorf("plain: replayed %d of %d cells, want all but the recorded one", st.Replayed, len(f.Cells))
		}
	}
}
