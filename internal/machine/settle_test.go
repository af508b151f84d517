package machine

import (
	"math/rand"
	"testing"

	"upmgo/internal/memsys"
)

// denseSettle is the reference Settle: it sums, charges and clears every
// node's tally of every CPU instead of the listed ones. It runs no hooks
// (the machines here have none) and no recorder checks.
func denseSettle(m *Machine, cpus []*CPU, start int64) int64 {
	tmax := start
	for _, c := range cpus {
		tmax = max(tmax, c.clock)
	}
	acc := make([]int64, len(m.settleAcc))
	for _, c := range cpus {
		for n, a := range c.nodeAcc {
			acc[n] += a
		}
	}
	per := make([]int64, len(acc))
	floor := memsys.ContentionDelays(per, acc, tmax-start, m.Lat.MemService)
	tb := start
	for _, c := range cpus {
		for n, a := range c.nodeAcc {
			if a != 0 {
				c.clock += a * per[n]
				c.nodeAcc[n] = 0
			}
		}
		c.accList = c.accList[:0]
		tb = max(tb, c.clock)
	}
	tb = max(tb, start+floor)
	for _, c := range cpus {
		c.clock = tb
	}
	return tb
}

// TestSettleSparseMatchesDense: random tallies over random CPU subsets
// settle to the time and clocks a dense walk over every node reaches —
// the master alone (the settle at a fork) and a whole team, on the
// default machine and on hier256, over consecutive regions so that the
// scratch tallies are reused. Every settled CPU is left with no tally
// and an empty node list.
func TestSettleSparseMatchesDense(t *testing.T) {
	for _, shape := range []string{"", "hier256"} {
		cfg := DefaultConfig()
		if shape != "" {
			if err := cfg.SetTopology(shape); err != nil {
				t.Fatal(err)
			}
		}
		sparse, dense := MustNew(cfg), MustNew(cfg)
		rng := rand.New(rand.NewSource(37))
		nodes := len(sparse.settleAcc)
		start := int64(0)
		for region := 0; region < 40; region++ {
			team := 1 // the master's serial section, settled at the fork
			if region%2 == 1 {
				team = 1 + rng.Intn(sparse.NumCPUs())
			}
			for i := 0; i < team; i++ {
				if rng.Intn(3) == 0 {
					continue // a member that charged no memory
				}
				adv := rng.Int63n(200 * memsys.Micro)
				touched := 1 + rng.Intn(nodes)
				if rng.Intn(2) == 0 {
					touched = 1 + rng.Intn(3) // a few hot nodes
				}
				for k := 0; k < touched; k++ {
					home, n := rng.Intn(nodes), 1+rng.Int63n(2000)
					sparse.cpus[i].tally(home, n)
					dense.cpus[i].tally(home, n)
				}
				sparse.cpus[i].Advance(adv)
				dense.cpus[i].Advance(adv)
			}
			got := sparse.Settle(sparse.cpus[:team], start)
			want := denseSettle(dense, dense.cpus[:team], start)
			if got != want {
				t.Fatalf("%s region %d (team %d): sparse settle %d, dense %d", shape, region, team, got, want)
			}
			for i, c := range sparse.cpus {
				if c.clock != dense.cpus[i].clock {
					t.Fatalf("%s region %d: cpu %d clock %d, dense %d", shape, region, i, c.clock, dense.cpus[i].clock)
				}
				if len(c.accList) != 0 {
					t.Fatalf("%s region %d: cpu %d still lists nodes %v", shape, region, i, c.accList)
				}
				for n, a := range c.nodeAcc {
					if a != 0 {
						t.Fatalf("%s region %d: cpu %d node %d tally %d after settle", shape, region, i, n, a)
					}
				}
			}
			for n, a := range sparse.settleAcc {
				if a != 0 {
					t.Fatalf("%s region %d: scratch tally of node %d is %d after settle", shape, region, n, a)
				}
			}
			for _, c := range sparse.cpus {
				c.clock = got
			}
			for _, c := range dense.cpus {
				c.clock = want
			}
			start = got
		}
	}
}
