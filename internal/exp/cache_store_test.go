package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/store"
)

// storeOptions is the smallest sweep that exercises the store: one
// benchmark at full width. The simulator is exactly reproducible at
// every width, so "recalled from disk" and "recomputed" are
// bit-comparable.
var storeOptions = SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}

func sweepWithStore(t *testing.T, dir string) ([]Cell, CacheStats, []*CellReport) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetStore(st)
	res, reports := sweepReports(t, Runner{Jobs: 2, Cache: c}, SweepRequest{Kind: KindFigure1, Options: storeOptions})
	return res[0].Cells, c.Stats(), reports
}

// TestStoreWarmStartBitIdentical is the acceptance invariant: a second
// process sharing the store directory simulates nothing and returns
// bit-identical cells. Two fresh Cache+Store pairs stand in for the two
// processes.
func TestStoreWarmStartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cold, s1, _ := sweepWithStore(t, dir)
	if s1.Misses == 0 || s1.StorePuts != s1.Misses || s1.DiskHits != 0 {
		t.Fatalf("cold run stats look wrong: %+v", s1)
	}
	warm, s2, reports := sweepWithStore(t, dir)
	if s2.Misses != 0 {
		t.Errorf("warm run simulated %d cells, want 0 (stats %+v)", s2.Misses, s2)
	}
	if s2.DiskHits != s1.Misses {
		t.Errorf("warm run recalled %d cells from disk, want %d", s2.DiskHits, s1.Misses)
	}
	if n := countReports(reports).streams; n != 0 {
		t.Errorf("warm run recorded %d miss streams, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("store-recalled cells differ from the simulated originals")
	}
}

// TestStoreCorruptRecordResimulated: a damaged record is detected (never
// served), only that cell re-simulates, and the rewrite repairs it.
func TestStoreCorruptRecordResimulated(t *testing.T) {
	dir := t.TempDir()
	cold, s1, _ := sweepWithStore(t, dir)

	// Bit-flip one record's payload on disk.
	specs := Figure1Specs(storeOptions)
	key, ok := specs[3].Key()
	if !ok {
		t.Fatal("spec not memoizable")
	}
	path := filepath.Join(dir, store.Address(key)+".json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, s2, _ := sweepWithStore(t, dir)
	if s2.Misses != 1 {
		t.Errorf("corrupt store re-simulated %d cells, want exactly the damaged 1 (stats %+v)", s2.Misses, s2)
	}
	if s2.StoreErrors == 0 {
		t.Error("corruption left no trace in StoreErrors")
	}
	if s2.DiskHits != s1.Misses-1 {
		t.Errorf("warm run recalled %d cells, want %d", s2.DiskHits, s1.Misses-1)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("cells after corruption repair differ from the originals")
	}

	// The re-simulation's write-behind repaired the record.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(key); err != nil {
		t.Errorf("record not repaired by the re-simulating run: %v", err)
	}
}

// TestStoreMixedWithRAMHits: within one process the RAM level still
// fronts the disk level — a figure overlap (Figure 1 ⊂ Figure 4) is
// served from RAM, not re-read from disk.
func TestStoreMixedWithRAMHits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetStore(st)
	r := Runner{Jobs: 2, Cache: c}
	if _, err := sweep(r, KindFigure4, storeOptions); err != nil {
		t.Fatal(err)
	}
	mid := c.Stats()
	if _, err := sweep(r, KindFigure1, storeOptions); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.DiskHits != 0 {
		t.Errorf("same-process overlap read %d cells from disk, want RAM hits only", s.DiskHits)
	}
	if s.Hits <= mid.Hits {
		t.Error("Figure 1 after Figure 4 produced no RAM hits")
	}
	if s.Misses != mid.Misses {
		t.Errorf("Figure 1 after Figure 4 re-simulated %d cells", s.Misses-mid.Misses)
	}
}
