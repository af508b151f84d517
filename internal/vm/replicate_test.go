package vm

import (
	"testing"
	"testing/quick"
)

func TestWriteTrackingLifecycle(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	if pt.WriteTracking() {
		t.Error("tracking on by default")
	}
	pt.SetWriteTracking(true)
	if !pt.WriteTracking() {
		t.Error("tracking not enabled")
	}
	if pt.Written(3) {
		t.Error("page written before any write")
	}
	pt.MarkWritten(3)
	if !pt.Written(3) {
		t.Error("write not recorded")
	}
	pt.ResetWritten()
	if pt.Written(3) {
		t.Error("write log survived reset")
	}
	pt.SetWriteTracking(false)
	if pt.WriteTracking() {
		t.Error("tracking not disabled")
	}
}

func TestReplicateAndNearestCopy(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	pt.Resolve(0, 0) // home node 0
	if !pt.Replicate(0, 7) {
		t.Fatal("replication refused")
	}
	if pt.Replicate(0, 7) {
		t.Error("duplicate replica accepted")
	}
	if pt.Replicate(0, 0) {
		t.Error("replication onto the home accepted")
	}
	if !pt.HasReplicas(0) {
		t.Error("HasReplicas false")
	}
	// From node 7 the replica itself is nearest; from node 1 the home.
	if got := pt.NearestCopy(0, 7); got != 7 {
		t.Errorf("NearestCopy(from 7) = %d, want 7", got)
	}
	if got := pt.NearestCopy(0, 1); got != 0 {
		t.Errorf("NearestCopy(from 1) = %d, want 0", got)
	}
	// From node 6 (110): home 0 is 2 hops, replica 7 (111) is 1 hop.
	if got := pt.NearestCopy(0, 6); got != 7 {
		t.Errorf("NearestCopy(from 6) = %d, want 7", got)
	}
	if pt.replicas != 1 {
		t.Errorf("replica creations = %d, want 1", pt.replicas)
	}
}

func TestReplicateUnmappedPageRefused(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	if pt.Replicate(2, 3) {
		t.Error("replicated an unmapped page")
	}
}

func TestCollapseReplicas(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	pt.Resolve(1, 0)
	pt.Replicate(1, 3)
	pt.Replicate(1, 5)
	gen := pt.Gen(1)
	used := pt.Used()
	if used[3] != 1 || used[5] != 1 {
		t.Fatalf("replica capacity not charged: %v", used)
	}
	if n := pt.CollapseReplicas(1); n != 2 {
		t.Fatalf("collapsed %d copies, want 2", n)
	}
	if pt.HasReplicas(1) {
		t.Error("replicas survived collapse")
	}
	if pt.Gen(1) != gen+1 {
		t.Error("collapse did not bump the generation")
	}
	used = pt.Used()
	if used[3] != 0 || used[5] != 0 {
		t.Errorf("replica capacity not released: %v", used)
	}
	if pt.Collapses() != 1 {
		t.Errorf("Collapses = %d, want 1", pt.Collapses())
	}
	// Collapsing again is a no-op.
	if n := pt.CollapseReplicas(1); n != 0 {
		t.Errorf("second collapse dropped %d", n)
	}
}

func TestMarkWrittenCollapses(t *testing.T) {
	pt := newPT(t, 8, FirstTouch)
	pt.SetWriteTracking(true)
	pt.Resolve(0, 0)
	pt.Replicate(0, 6)
	if n := pt.MarkWritten(0); n != 1 {
		t.Errorf("MarkWritten dropped %d copies, want 1", n)
	}
	if pt.HasReplicas(0) {
		t.Error("write left replicas alive")
	}
}

func TestReplicateCapacity(t *testing.T) {
	topo := mustCube(t, 8)
	pt, err := New(topo, Config{Pages: 4, Policy: FirstTouch, CapacityPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt.Resolve(0, 0)
	pt.Resolve(1, 2) // node 2 now full
	if pt.Replicate(0, 2) {
		t.Error("replication onto a full node accepted")
	}
	if !pt.Replicate(0, 3) {
		t.Error("replication onto a free node refused")
	}
}

// Property: NearestCopy never returns a node farther than the home.
func TestNearestCopyNeverWorse(t *testing.T) {
	topo := mustCube(t, 8)
	pt, _ := New(topo, Config{Pages: 1, Policy: FirstTouch})
	pt.Resolve(0, 0)
	pt.Replicate(0, 5)
	pt.Replicate(0, 6)
	f := func(from uint8) bool {
		n := int(from) % 8
		return topo.Hops(n, pt.NearestCopy(0, n)) <= topo.Hops(n, pt.Home(0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
