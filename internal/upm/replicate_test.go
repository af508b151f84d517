package upm

import (
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/vm"
)

// mkRepl builds a machine with one hot array on node 0 and write tracking
// armed.
func mkRepl(t *testing.T, npages int) (*machine.Machine, *UPM, uint64) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Placement = vm.WorstCase
	m := machine.MustNew(cfg)
	a := m.NewArray("x", npages*2048)
	lo, hi := a.PageRange()
	for p := lo; p < hi; p++ {
		m.PT.Resolve(p, 0)
	}
	u := Init(m, Options{})
	u.MemRefCnt(lo, hi)
	u.EnableWriteTracking()
	return m, u, lo
}

func TestReplicateReadOnlyCreatesCopies(t *testing.T) {
	m, u, lo := mkRepl(t, 2)
	// Page 0: read hot from nodes 3 and 5; page 1: only node 2.
	hammer(m, lo, 3, 200)
	hammer(m, lo, 5, 150)
	hammer(m, lo+1, 2, 200)
	n := u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{})
	if n != 2 {
		t.Fatalf("created %d copies, want 2 (page 0 on nodes 3 and 5)", n)
	}
	if got := replicaNodes(m.PT.Replicas(lo)); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("replicas of page 0 = %v, want [3 5]", got)
	}
	if m.PT.HasReplicas(lo + 1) {
		t.Error("single-reader page replicated; should be left to migration")
	}
	if u.Stats().Replications != 2 {
		t.Errorf("Replications stat = %d, want 2", u.Stats().Replications)
	}
}

func TestWrittenPagesNotReplicated(t *testing.T) {
	m, u, lo := mkRepl(t, 1)
	hammer(m, lo, 3, 200)
	hammer(m, lo, 5, 200)
	m.PT.MarkWritten(lo) // a store happened during the traced iteration
	if n := u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{}); n != 0 {
		t.Errorf("replicated %d written pages, want 0", n)
	}
}

func TestReadsServedByNearestCopy(t *testing.T) {
	m, u, lo := mkRepl(t, 1)
	hammer(m, lo, 7, 200)
	hammer(m, lo, 6, 200)
	if n := u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{}); n != 2 {
		t.Fatalf("created %d copies, want 2", n)
	}
	// CPU 14 is on node 7: its reads must be served locally now.
	c := m.CPU(14)
	before := c.Stat()
	a := machine.Array{} // not needed: drive Load directly
	_ = a
	c.Load(lo << m.PageShift())
	s := c.Stat()
	if s.LocalMem-before.LocalMem != 1 || s.RemoteMem != before.RemoteMem {
		t.Errorf("read not served by the local replica: local+%d remote+%d",
			s.LocalMem-before.LocalMem, s.RemoteMem-before.RemoteMem)
	}
	// Node 0's own CPU still reads the home copy locally.
	c0 := m.CPU(0)
	before0 := c0.Stat()
	c0.Load(lo << m.PageShift())
	if c0.Stat().LocalMem-before0.LocalMem != 1 {
		t.Error("home node read not local")
	}
}

func TestWriteCollapsesReplicas(t *testing.T) {
	m, u, lo := mkRepl(t, 1)
	hammer(m, lo, 7, 200)
	hammer(m, lo, 6, 200)
	u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{})
	if !m.PT.HasReplicas(lo) {
		t.Fatal("no replicas to collapse")
	}
	gen := m.PT.Gen(lo)
	w := m.CPU(2)
	before := w.Now()
	w.Store(lo << m.PageShift())
	if m.PT.HasReplicas(lo) {
		t.Error("replicas survived a write")
	}
	if m.PT.Gen(lo) == gen {
		t.Error("collapse did not bump the generation (no shootdown)")
	}
	if w.Now()-before < m.ShootdownCost() {
		t.Error("writer not charged for the invalidation")
	}
	if m.PT.Collapses() != 1 {
		t.Errorf("collapse count = %d, want 1", m.PT.Collapses())
	}
}

func TestReplicationRespectsMaxReplicas(t *testing.T) {
	m, u, lo := mkRepl(t, 1)
	for n := 1; n < 8; n++ {
		hammer(m, lo, n, 100+10*n)
	}
	created := u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{MaxReplicas: 2})
	if created != 2 {
		t.Fatalf("created %d copies, want 2", created)
	}
	// The two hottest readers are nodes 7 and 6.
	if got := replicaNodes(m.PT.Replicas(lo)); len(got) != 2 || got[0] != 6 || got[1] != 7 {
		t.Errorf("replicas = %v, want [6 7]", got)
	}
}

func TestReplicationCapacityRespected(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Placement = vm.FirstTouch
	cfg.CapacityPages = 1
	m := machine.MustNew(cfg)
	a := m.NewArray("x", 2048)
	lo, hi := a.PageRange()
	m.NewArray("y", 1)  // allocates page hi
	m.PT.Resolve(lo, 0) // first-touch from node 0
	u := Init(m, Options{})
	u.MemRefCnt(lo, hi)
	u.EnableWriteTracking()
	// Node 3 already full: fault an unrelated page onto it.
	m.PT.Resolve(hi, 3) // hi is outside the hot range but inside the heap
	hammer(m, lo, 3, 200)
	hammer(m, lo, 5, 200)
	created := u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{})
	if created != 1 {
		t.Fatalf("created %d copies, want 1 (node 3 full)", created)
	}
	if got := replicaNodes(m.PT.Replicas(lo)); len(got) != 1 || got[0] != 5 {
		t.Errorf("replicas = %v, want [5]", got)
	}
}

func TestReplicatePanicsWithoutTracking(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	u := Init(m, Options{})
	u.MemRefCnt(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic without write tracking")
		}
	}()
	u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{})
}

func TestEndToEndSharedTableReplication(t *testing.T) {
	// A broadcast pattern: every CPU repeatedly reads one shared table
	// that lives on node 0. Replication must convert those remote reads
	// into local ones machine-wide.
	cfg := machine.DefaultConfig()
	cfg.Placement = vm.WorstCase
	m := machine.MustNew(cfg)
	table := m.NewArray("table", 4*2048) // 4 pages on node 0
	lo, hi := table.PageRange()
	u := Init(m, Options{})
	u.MemRefCnt(lo, hi)
	u.EnableWriteTracking()

	sweep := func() {
		for id := 0; id < m.NumCPUs(); id++ {
			c := m.CPU(id)
			c.FlushCaches()
			for i := 0; i < table.Len(); i += 16 {
				table.Get(c, i)
			}
		}
	}
	sweep() // expose the trace
	if n := u.ReplicateReadOnly(m.CPU(0), ReplicationOptions{MaxReplicas: 7}); n == 0 {
		t.Fatal("no replicas created for a broadcast-read table")
	}
	before := m.Stats()
	sweep()
	after := m.Stats()
	rem := after.RemoteMem - before.RemoteMem
	loc := after.LocalMem - before.LocalMem
	if ratio := float64(rem) / float64(rem+loc); ratio > 0.25 {
		t.Errorf("remote ratio %.2f after replication, want mostly local", ratio)
	}
}
