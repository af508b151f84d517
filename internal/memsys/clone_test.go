package memsys

import (
	"reflect"
	"testing"
)

// TestCacheCloneIsolation: a clone is bit-identical to its parent
// (tags and versions in recency order) and the two diverge independently
// afterwards — the memsys half of the machine snapshot invariant.
func TestCacheCloneIsolation(t *testing.T) {
	c := MustCache(4*1024, 64, 2)
	for i := uint64(0); i < 512; i++ {
		c.Access(i*64, 0, 0)
	}
	c.Access(0, 0, 0) // a hit, which moves line 0 to its set's MRU way

	k := c.Clone()
	if !reflect.DeepEqual(c, k) {
		t.Fatal("clone differs from parent")
	}

	// Disturb the clone: new lines evict, a version bump invalidates.
	// The parent must not move.
	beforeTags := append([]uint64(nil), c.tags...)
	beforeVers := append([]uint32(nil), c.vers...)
	for i := uint64(1000); i < 1100; i++ {
		k.Access(i*64, 0, 0)
	}
	k.Access(0, 1, 1)
	k.Flush()
	if !reflect.DeepEqual(c.tags, beforeTags) || !reflect.DeepEqual(c.vers, beforeVers) {
		t.Error("mutating the clone changed the parent's lines")
	}
	if !c.Access(0, 0, 0) {
		t.Error("mutating the clone invalidated the parent's copy of line 0")
	}

	// And the reverse: the parent keeps running, the clone's snapshot of
	// the original state must not move.
	k2 := c.Clone()
	for i := uint64(2000); i < 2100; i++ {
		c.Access(i*64, 0, 0)
	}
	if reflect.DeepEqual(c, k2) {
		t.Error("parent did not diverge from the clone")
	}
	if !reflect.DeepEqual(k2.tags, beforeTags) || !reflect.DeepEqual(k2.vers, beforeVers) {
		t.Error("mutating the parent changed the clone")
	}
}

// TestTLBCloneIsolation mirrors the cache test for the TLB, including
// the shootdown generations that version its entries.
func TestTLBCloneIsolation(t *testing.T) {
	tl := MustTLB(64, 4)
	for v := uint64(0); v < 100; v++ {
		tl.LookupRun(v, 1, 1)
	}
	tl.LookupRun(99, 1, 1) // hit

	k := tl.Clone()
	if !reflect.DeepEqual(tl, k) {
		t.Fatal("clone differs from parent")
	}

	before := append([]uint64(nil), tl.Ways()...)
	for v := uint64(500); v < 600; v++ {
		k.LookupRun(v, 2, 2)
	}
	k.Flush()
	if !reflect.DeepEqual(tl.Ways(), before) {
		t.Error("mutating the clone changed the parent's entries")
	}
	if !tl.LookupRun(99, 1, 1) {
		t.Error("mutating the clone evicted the parent's entries")
	}
}
