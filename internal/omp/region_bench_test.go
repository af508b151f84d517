package omp

import (
	"fmt"
	"testing"

	"upmgo/internal/machine"
)

// BenchmarkRegion is the fork/join and barrier layer's per-layer probe:
// host nanoseconds per barrier of one region whose members run 8
// barrier-separated empty steps, at 16 threads on the default machine
// and 256 on hier256, with the members on lanes (the body a simulated
// region runs) and through ParallelSteps (the loop a replayed region
// runs). The fork, the join and their settles are in the figure.
func BenchmarkRegion(b *testing.B) {
	const barriers = 8
	for _, sh := range []struct {
		shape   string
		threads int
	}{{"", 16}, {"hier256", 256}} {
		cfg := machine.DefaultConfig()
		if sh.shape != "" {
			if err := cfg.SetTopology(sh.shape); err != nil {
				b.Fatal(err)
			}
		}
		tm := MustTeam(machine.MustNew(cfg), sh.threads)
		calls := make([]int, sh.threads)
		step := func(c *machine.CPU) bool {
			if calls[c.ID] == barriers {
				calls[c.ID] = 0
				return false
			}
			calls[c.ID]++
			return true
		}
		for _, v := range []struct {
			name   string
			region func()
		}{
			{"lanes", func() {
				tm.ParallelNamed("region", func(tr *Thread) {
					for step(tr.CPU) {
						tr.Barrier()
					}
				})
			}},
			{"steps", func() { tm.ParallelSteps("region", step) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", v.name, sh.threads), func(b *testing.B) {
				v.region() // the lanes' first region starts them
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.region()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*barriers), "ns/barrier")
			})
		}
		tm.Rest()
	}
}
