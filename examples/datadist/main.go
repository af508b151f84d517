// Datadist: the paper's headline mechanism on a custom kernel. An
// iterative stencil starts with the worst possible data placement (every
// page on node 0 — what a buddy allocator gives you), and UPMlib's
// iterative page-migration mechanism transparently reproduces the effect
// of a proper data distribution after the first iteration: no directives,
// no source changes beyond the two library calls of the paper's Figure 2.
package main

import (
	"fmt"
	"log"

	"upmgo"
)

const (
	rows  = 256
	cols  = 2048 // one 16 KB page per row
	iters = 8
)

func main() {
	cfg := upmgo.DefaultMachineConfig()
	cfg.Placement = upmgo.WorstCase // buddy-style: everything on node 0
	m, err := upmgo.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	grid := m.NewArray("grid", rows*cols)
	next := m.NewArray("next", rows*cols)
	team, err := upmgo.NewTeam(m, m.NumCPUs())
	if err != nil {
		log.Fatal(err)
	}

	// upmlib_init + upmlib_memrefcnt on the two hot arrays.
	u := upmgo.NewUPM(m, upmgo.UPMOptions{})
	lo, hi := grid.PageRange()
	u.MemRefCnt(lo, hi)
	lo, hi = next.PageRange()
	u.MemRefCnt(lo, hi)

	sweep := func() {
		team.Parallel(func(tr *upmgo.Thread) {
			tr.For(1, rows-1, upmgo.StaticSchedule(), func(c *upmgo.CPU, from, to int) {
				for r := from; r < to; r++ {
					for col := 1; col < cols-1; col++ {
						v := 0.25 * (grid.Get(c, (r-1)*cols+col) + grid.Get(c, (r+1)*cols+col) +
							grid.Get(c, r*cols+col-1) + grid.Get(c, r*cols+col+1))
						next.Set(c, r*cols+col, v)
						c.Flops(4)
					}
				}
			})
			// Copy back with the same partitioning.
			tr.For(1, rows-1, upmgo.StaticSchedule(), func(c *upmgo.CPU, from, to int) {
				for r := from; r < to; r++ {
					for col := 1; col < cols-1; col++ {
						grid.Set(c, r*cols+col, next.Get(c, r*cols+col))
					}
				}
			})
		})
	}

	for i := range grid.Data() {
		grid.Data()[i] = float64(i % 7)
	}

	master := team.Master()
	fmt.Println("iter   time(ms)  remote%   migrations")
	var prevRemote, prevLocal uint64
	for it := 1; it <= iters; it++ {
		t0 := master.Now()
		sweep()
		// The paper's Figure 2 protocol: invoke after the first
		// iteration and keep invoking while pages still move.
		if it == 1 || (u.Active() && u.LastMigrations() > 0) {
			u.MigrateMemory(master)
		}
		s := m.Stats()
		remote := s.RemoteMem - prevRemote
		local := s.LocalMem - prevLocal
		prevRemote, prevLocal = s.RemoteMem, s.LocalMem
		fmt.Printf("%4d %10.3f %8.1f %12d\n",
			it, float64(master.Now()-t0)/1e9,
			100*float64(remote)/float64(max(remote+local, 1)), u.Stats().Migrations)
	}
	fmt.Printf("\nUPMlib moved %d pages (%d in the first invocation) and then deactivated itself: %v\n",
		u.Stats().Migrations, u.Stats().FirstInvocation, !u.Active())
}
