package memsys

import (
	"testing"
	"testing/quick"
)

func TestOrigin2000Table1(t *testing.T) {
	l := Origin2000()
	cases := []struct {
		hops int
		want int64
	}{
		{0, 329 * Nano},
		{1, 564 * Nano},
		{2, 759 * Nano},
		{3, 862 * Nano},
		{4, 962 * Nano}, // extrapolated
		{5, 1062 * Nano},
	}
	for _, c := range cases {
		if got := l.MemLatency(c.hops); got != c.want {
			t.Errorf("MemLatency(%d) = %d ps, want %d ps", c.hops, got, c.want)
		}
	}
	if l.L1Hit != 5500*Pico {
		t.Errorf("L1Hit = %d, want 5500 ps", l.L1Hit)
	}
	if l.L2Hit != 56900*Pico {
		t.Errorf("L2Hit = %d, want 56900 ps", l.L2Hit)
	}
}

func TestRemoteToLocalRatioMatchesPaper(t *testing.T) {
	// The paper stresses that the Origin2000 remote:local ratio is between
	// 2:1 and 3:1; the model must preserve that.
	l := Origin2000()
	local := l.MemLatency(0)
	for h := 1; h <= 3; h++ {
		r := float64(l.MemLatency(h)) / float64(local)
		if r < 1.5 || r > 3.0 {
			t.Errorf("remote(%d hops):local ratio = %.2f, want within [1.5,3.0]", h, r)
		}
	}
}

func TestScaleRemote(t *testing.T) {
	l := Origin2000().ScaleRemote(3, 1)
	if l.MemLatency(0) != 329*Nano {
		t.Errorf("local latency changed by ScaleRemote: %d", l.MemLatency(0))
	}
	want := 329*Nano + 3*(564-329)*Nano
	if got := l.MemLatency(1); got != want {
		t.Errorf("scaled 1-hop = %d, want %d", got, want)
	}
	// Original must be unchanged (value receiver).
	if Origin2000().MemLatency(1) != 564*Nano {
		t.Error("ScaleRemote mutated the source Latency")
	}
}

func TestMemLatencyMonotoneInHops(t *testing.T) {
	l := Origin2000()
	f := func(a, b uint8) bool {
		ha, hb := int(a%12), int(b%12)
		if ha > hb {
			ha, hb = hb, ha
		}
		return l.MemLatency(ha) <= l.MemLatency(hb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// delays runs ContentionDelays into a slice left dirty by an earlier
// call, as Machine.Settle reuses one, so an entry it forgets to write
// shows as -1.
func delays(accesses []int64, t0, service int64) ([]int64, int64) {
	per := make([]int64, len(accesses))
	for n := range per {
		per[n] = -1
	}
	floor := ContentionDelays(per, accesses, t0, service)
	return per, floor
}

func TestContentionDelaysIdleAndLowLoad(t *testing.T) {
	per, floor := delays([]int64{0, 0}, 1000*Nano, 155*Nano)
	if per[0] != 0 || per[1] != 0 || floor != 0 {
		t.Errorf("idle nodes: per=%v floor=%d, want zeros", per, floor)
	}
	// 1 access in a long region: utilisation ~0.
	per, _ = delays([]int64{1}, SecondPicos, 155*Nano)
	if per[0] != 0 {
		t.Errorf("low load delay = %d, want 0", per[0])
	}
}

func TestContentionDelaysSaturationFloor(t *testing.T) {
	// 10000 accesses of 155 ns service on one node: busy = 1.55 ms.
	per, floor := delays([]int64{10000}, 100*Micro, 155*Nano)
	if floor != 10000*155*Nano {
		t.Errorf("floor = %d, want %d", floor, 10000*155*Nano)
	}
	if per[0] <= 0 {
		t.Error("saturated node has zero per-access delay")
	}
}

func TestContentionDelaysMonotoneInLoad(t *testing.T) {
	s := int64(155 * Nano)
	t0 := int64(1000 * Micro)
	prev := int64(-1)
	for a := int64(0); a <= 12000; a += 500 {
		per, _ := delays([]int64{a}, t0, s)
		if per[0] < prev {
			t.Fatalf("delay not monotone: %d accesses -> %d, previous %d", a, per[0], prev)
		}
		prev = per[0]
	}
}

func TestContentionDelaysBalancedVsConcentrated(t *testing.T) {
	// Same total traffic, spread over 8 nodes vs concentrated on 1: the
	// concentrated case must cost strictly more per access and have a
	// larger floor. This is the mechanism behind the paper's worst-case
	// placement results.
	s := int64(155 * Nano)
	t0 := int64(2 * Milli)
	total := int64(16000)
	spread := make([]int64, 8)
	for i := range spread {
		spread[i] = total / 8
	}
	conc := make([]int64, 8)
	conc[0] = total
	perS, floorS := delays(spread, t0, s)
	perC, floorC := delays(conc, t0, s)
	if perC[0] <= perS[0] {
		t.Errorf("concentrated per-access delay %d <= spread %d", perC[0], perS[0])
	}
	if floorC <= floorS {
		t.Errorf("concentrated floor %d <= spread floor %d", floorC, floorS)
	}
}

func TestContentionDelaysZeroDuration(t *testing.T) {
	// A zero-length region must not divide by zero.
	per, _ := delays([]int64{5}, 0, 155*Nano)
	if per[0] < 0 {
		t.Error("negative delay for zero-duration region")
	}
}
