package nas_test

import (
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
)

// BenchmarkReplayMiss is the replay's per-layer probe: host nanoseconds
// per replayed L2 miss. It records BT Class W at the paper's 16 threads
// and 15 timed steps once (the stream the w16 benchmark workloads
// replay), then replays the plain first-touch cell and the same cell
// with kernel migration. Each replay walks the whole log, cold start
// included, so the miss count is the machine's total.
func BenchmarkReplayMiss(b *testing.B) {
	base := nas.Config{Class: nas.ClassW, Threads: 16, Iterations: 15}
	s, err := nas.RecordStream(bt.New, base)
	if err != nil {
		b.Fatal(err)
	}
	if s.Declined != "" {
		b.Fatalf("recording declined: %s", s.Declined)
	}
	for _, c := range []struct {
		name string
		kmig bool
	}{{"ft-IRIX", false}, {"ft-IRIXmig", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := base
			cfg.KernelMig = c.kmig
			var misses uint64
			for i := 0; i < b.N; i++ {
				r, err := s.Replay(cfg)
				if err != nil {
					b.Fatal(err)
				}
				misses += r.Mach.L2Miss
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(misses), "ns/miss")
		})
	}
}

// BenchmarkRecordStream is the recording's per-layer probe: host
// milliseconds to record the stream BenchmarkReplayMiss replays (BT
// Class W, 16 threads, 15 timed steps) up to its final frontier, the
// time a sweep charges to the record stage. A sweep of one stream waits
// for it: its replays follow the recording. The stream skips
// verification, so no free-run tail or Verify (free_run_tail) runs
// after the frontier.
func BenchmarkRecordStream(b *testing.B) {
	base := nas.Config{Class: nas.ClassW, Threads: 16, Iterations: 15, SkipVerify: true}
	for i := 0; i < b.N; i++ {
		if _, err := nas.RecordStream(bt.New, base); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
