package upm

import "testing"

// TestCounterVector: the steady-state detector's view of the engine —
// the table names its ten counters in layout order, a MigrateMemory
// invocation moves the vector (and LastMigrations), and Advance lands
// exactly on snapshot + k*delta.
func TestCounterVector(t *testing.T) {
	m, u, lo := mk(t, 4, Options{})
	tab := u.CounterTable(nil)
	want := []string{"upm_invocations", "upm_migrations", "upm_first_invocation",
		"upm_frozen", "upm_replay_migrations", "upm_undo_migrations",
		"upm_replications", "upm_overhead_ps", "upm_cursor", "upm_last_migs"}
	if len(tab) != len(want) {
		t.Fatalf("table has %d entries, want %d", len(tab), len(want))
	}
	for i, c := range tab {
		if c.Name != want[i] {
			t.Errorf("entry %d named %q, want %q", i, c.Name, want[i])
		}
	}
	s0 := tab.Snapshot(nil)

	hammer(m, lo, 3, 200)
	hammer(m, lo, 0, 50)
	if n := u.MigrateMemory(m.CPU(0)); n != 1 {
		t.Fatalf("MigrateMemory moved %d pages, want 1", n)
	}
	if u.LastMigrations() != 1 {
		t.Errorf("LastMigrations = %d, want 1", u.LastMigrations())
	}
	s1 := tab.Snapshot(nil)
	delta := make([]int64, len(s1))
	var moved bool
	for i := range s1 {
		delta[i] = s1[i] - s0[i]
		moved = moved || delta[i] != 0
	}
	if !moved {
		t.Fatal("an invocation that migrated left the counter vector unchanged")
	}

	const k = 7
	tab.Advance(delta, k)
	s2 := tab.Snapshot(nil)
	for i := range s2 {
		if want := s1[i] + k*delta[i]; s2[i] != want {
			t.Errorf("counter %s: got %d, want %d after fast-forward", tab[i].Name, s2[i], want)
		}
	}
	if got := u.Stats().Migrations; got != (k+1)*1 {
		t.Errorf("Stats().Migrations = %d, want %d", got, k+1)
	}
	if got := u.Stats().Invocations; got != k+1 {
		t.Errorf("Stats().Invocations = %d, want %d", got, k+1)
	}
}

// TestResetHotCounters zeroes every hot row so the next decision sees a
// fresh trace.
func TestResetHotCounters(t *testing.T) {
	m, u, lo := mk(t, 2, Options{})
	hammer(m, lo, 3, 200)
	u.ResetHotCounters()
	rows := m.PT.Counters(lo, nil)
	for node, v := range rows {
		if v != 0 {
			t.Errorf("node %d row = %d after reset, want 0", node, v)
		}
	}
	// A post-reset invocation sees no dominance and moves nothing.
	if n := u.MigrateMemory(m.CPU(0)); n != 0 {
		t.Errorf("MigrateMemory moved %d pages off a reset trace, want 0", n)
	}
}
