package memsys

import "testing"

// The paper machine's cache shapes (machine.DefaultConfig): a 32 KiB L1
// with 32-byte lines and a 4 MiB L2 with 128-byte lines, both 2-way. The
// footprints match the layer probes of the benchmark harness: half of L1
// stays resident, so every line hits, and a stream over 4x L2 misses on
// every line. Elements are 8 bytes; AccessLines goes 128 lines per call.
const (
	benchL1Bytes, benchL1Line = 32 << 10, 32
	benchL2Bytes, benchL2Line = 4 << 20, 128
	benchWays, benchChunk     = 2, 128
)

func BenchmarkAccessLines(b *testing.B) {
	run := func(c *Cache, lines int) (misses int) {
		per := c.LineBytes() / 8
		for a := 0; a < lines; a += benchChunk {
			m, _, _ := c.AccessLines(uint64(a*c.LineBytes()), benchChunk, per, per, per, 0, 0)
			misses += m
		}
		return misses
	}
	b.Run("hit", func(b *testing.B) { benchSweep(b, false, run) })
	b.Run("miss", func(b *testing.B) { benchSweep(b, true, run) })
}

// BenchmarkAccess probes once per line, as the bulk path does for a run
// of accesses within one line.
func BenchmarkAccess(b *testing.B) {
	run := func(c *Cache, lines int) (misses int) {
		for a := 0; a < lines; a++ {
			if !c.Access(uint64(a*c.LineBytes()), 0, 0) {
				misses++
			}
		}
		return misses
	}
	b.Run("hit", func(b *testing.B) { benchSweep(b, false, run) })
	b.Run("miss", func(b *testing.B) { benchSweep(b, true, run) })
}

// benchSweep times sweep over the hit or the miss footprint, reports ns
// per line, and checks that every timed line hit or missed as intended:
// sweep returns the number of lines that missed.
func benchSweep(b *testing.B, miss bool, sweep func(c *Cache, lines int) int) {
	c, lines := MustCache(benchL1Bytes, benchL1Line, benchWays), benchL1Bytes/2/benchL1Line
	if miss {
		c, lines = MustCache(benchL2Bytes, benchL2Line, benchWays), 4*benchL2Bytes/benchL2Line
	}
	sweep(c, lines)
	misses := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		misses += sweep(c, lines)
	}
	b.StopTimer()
	want := 0
	if miss {
		want = b.N * lines
	}
	if misses != want {
		b.Fatalf("%d timed misses, want %d", misses, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}
