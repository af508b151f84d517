package memsys

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewCacheRejectsBadShapes(t *testing.T) {
	cases := []struct{ size, line, ways int }{
		{0, 32, 2}, {1024, 0, 2}, {1024, 33, 2}, {1024, 32, 0},
		{1000, 32, 2}, {32 * 3 * 2, 32, 2}, // 3 sets: not a power of two
	}
	for _, c := range cases {
		if _, err := NewCache(c.size, c.line, c.ways); err == nil {
			t.Errorf("NewCache(%d,%d,%d) succeeded, want error", c.size, c.line, c.ways)
		}
	}
}

func TestCacheShape(t *testing.T) {
	c := MustCache(32*1024, 32, 2)
	if c.LineBytes() != 32 || c.Ways() != 2 || c.Sets() != 512 {
		t.Errorf("shape = %d/%d/%d, want 32/2/512", c.LineBytes(), c.Ways(), c.Sets())
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := MustCache(1024, 32, 2)
	if c.Access(0x1000, 0, 0) {
		t.Error("first access hit")
	}
	if !c.Access(0x1000, 0, 0) {
		t.Error("second access missed")
	}
	if !c.Access(0x101f, 0, 0) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1020, 0, 0) {
		t.Error("next-line access hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, line 32, size 128 -> 2 sets. Set 0 holds lines with even
	// line index.
	c := MustCache(128, 32, 2)
	a, b, d := uint64(0), uint64(128), uint64(256) // all map to set 0
	c.Access(a, 0, 0)
	c.Access(b, 0, 0)
	c.Access(a, 0, 0) // a is MRU
	c.Access(d, 0, 0) // evicts b
	if !c.Contains(a) {
		t.Error("a evicted, want kept (MRU)")
	}
	if c.Contains(b) {
		t.Error("b kept, want evicted (LRU)")
	}
	if !c.Contains(d) {
		t.Error("d not inserted")
	}
}

func TestCacheFlush(t *testing.T) {
	c := MustCache(1024, 32, 2)
	c.Access(64, 0, 0)
	c.Flush()
	if c.Contains(64) {
		t.Error("line survived Flush")
	}
}

// TestCacheStats: the outcomes of a miss, a hit and a miss on the next
// line, and the lines they leave resident in recency order. The cache
// keeps no counts of its own; a CPU's CPUStats counts the outcomes.
func TestCacheStats(t *testing.T) {
	c := MustCache(1024, 32, 2)
	var got []bool
	for _, a := range []uint64{0, 0, 32} {
		got = append(got, c.Access(a, 0, 0))
	}
	if !slices.Equal(got, []bool{false, true, false}) {
		t.Errorf("outcomes = %v, want [false true false]", got)
	}
	// Line 0 sits in set 0 and line 1 in set 1, each in its MRU way.
	if tags, _ := c.Lines(); tags[0] != 1 || tags[2] != 2 || tags[1] != 0 || tags[3] != 0 {
		t.Errorf("tags of sets 0 and 1 = %v, want [1 0 2 0]", tags[:4])
	}
}

// Property: immediately after any access, the line is resident.
func TestCacheAccessMakesResident(t *testing.T) {
	c := MustCache(4096, 128, 4)
	f := func(addr uint64) bool {
		c.Access(addr, 0, 0)
		return c.Contains(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than the associativity within one set
// never misses after the first touch (LRU guarantees this).
func TestCacheNoThrashWithinAssociativity(t *testing.T) {
	c := MustCache(1024, 32, 4)         // 8 sets, 4 ways
	addrs := []uint64{0, 256, 512, 768} // all set 0
	for _, a := range addrs {
		c.Access(a, 0, 0)
	}
	for round := 0; round < 10; round++ {
		for _, a := range addrs {
			if !c.Access(a, 0, 0) {
				t.Fatalf("round %d: address %#x missed", round, a)
			}
		}
	}
}

// A lookup that misses loads the translation, so the next one hits.
func TestTLBLookupInsert(t *testing.T) {
	tlb := MustTLB(64, 8)
	if tlb.LookupRun(7, 0, 1) {
		t.Error("empty TLB hit")
	}
	if !tlb.LookupRun(7, 0, 1) {
		t.Error("loaded vpn missed")
	}
}

func TestTLBGenerationShootdown(t *testing.T) {
	tlb := MustTLB(64, 8)
	tlb.LookupRun(7, 0, 1)
	if tlb.LookupRun(7, 1, 1) {
		t.Error("stale-generation entry hit; shootdown not applied")
	}
	// The miss reloaded the translation at the new generation: it hits
	// there, and the old generation is now the stale one.
	if !tlb.LookupRun(7, 1, 1) {
		t.Error("reloaded entry missed")
	}
	if tlb.LookupRun(7, 0, 1) {
		t.Error("old generation hit after the reload")
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	tlb := MustTLB(2, 2) // one set, two ways
	tlb.LookupRun(1, 0, 1)
	tlb.LookupRun(2, 0, 1)
	tlb.LookupRun(1, 0, 1) // 1 becomes MRU
	tlb.LookupRun(3, 0, 1) // evicts 2
	if !tlb.LookupRun(1, 0, 1) {
		t.Error("MRU entry evicted")
	}
	if tlb.LookupRun(2, 0, 1) {
		t.Error("LRU entry kept")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := MustTLB(64, 8)
	tlb.LookupRun(3, 0, 1)
	tlb.Flush()
	if tlb.LookupRun(3, 0, 1) {
		t.Error("entry survived Flush")
	}
}

func TestTLBRejectsBadShapes(t *testing.T) {
	for _, c := range []struct{ e, w int }{{0, 1}, {8, 0}, {8, 3}, {24, 8}} {
		if _, err := NewTLB(c.e, c.w); err == nil {
			t.Errorf("NewTLB(%d,%d) succeeded, want error", c.e, c.w)
		}
	}
}

// TestTLBEntriesAndStats: the capacity, and the outcomes of a miss, a
// hit, a run that misses once and a run of hits on a loaded page. The
// TLB keeps no counts of its own; a CPU's CPUStats counts the outcomes.
func TestTLBEntriesAndStats(t *testing.T) {
	tlb := MustTLB(64, 8)
	if tlb.Entries() != 64 {
		t.Errorf("Entries = %d, want 64", tlb.Entries())
	}
	var got []bool
	for _, l := range []struct {
		vpn uint64
		n   int
	}{{1, 1}, {1, 1}, {2, 3}, {2, 3}} {
		got = append(got, tlb.LookupRun(l.vpn, 0, l.n))
	}
	if !slices.Equal(got, []bool{false, true, false, true}) {
		t.Errorf("outcomes = %v, want [false true false true]", got)
	}
	if !tlb.Resident(1) || !tlb.Resident(2) || tlb.Resident(3) {
		t.Error("want vpns 1 and 2 resident and 3 not")
	}
}

func TestMustTLBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTLB(3,2) did not panic")
		}
	}()
	MustTLB(3, 2)
}

func TestMustCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCache bad shape did not panic")
		}
	}()
	MustCache(100, 32, 2)
}

// Property: a stale-version hit refills in place, so the immediately
// following access at the new version hits.
func TestCacheStaleRefill(t *testing.T) {
	c := MustCache(1024, 32, 2)
	c.Access(64, 0, 0)
	if c.Access(64, 1, 1) {
		t.Fatal("stale copy hit")
	}
	if !c.Access(64, 1, 1) {
		t.Error("refilled copy missed")
	}
}

// A writer's own refill must stay valid for itself: fill with newVer >
// ver, then access at newVer.
func TestCacheWriterKeepsOwnCopy(t *testing.T) {
	c := MustCache(1024, 32, 2)
	c.Access(64, 3, 4) // write path: validate at 3, stamp 4
	if !c.Access(64, 4, 4) {
		t.Error("writer's own copy went stale")
	}
}
