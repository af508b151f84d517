package nas

import (
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
)

// BenchmarkSteadyStateDetect measures the per-iteration overhead -steady
// adds while the loop is still being watched: one full counter snapshot,
// the page-home hash over every allocated page, and the delta
// comparison. The sub-cases split by what the hash must cover — homes
// only, or homes plus the reference-counter rows (required exactly when
// the kernel engine is enabled, since its scans read the rows). The
// footprint is sized to a figure-sweep cell so the pages metric anchors
// the cost: detection only pays off while this stays far below one
// iteration's simulation cost.
func BenchmarkSteadyStateDetect(b *testing.B) {
	for _, c := range []struct {
		name     string
		withRows bool
	}{{"homes", false}, {"homes+rows", true}} {
		b.Run(c.name, func(b *testing.B) {
			m, err := machine.New(machine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			m.NewArray("ballast", 4<<20) // ~2k pages of hashed footprint
			eng := kmig.Attach(m, kmig.DefaultConfig())
			det := newSteadyDetector(m, eng, nil, 0, c.withRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.observe(1, 1)
			}
			b.ReportMetric(float64(m.AllocatedPages()), "pages")
		})
	}
}
