package nas

import (
	"testing"
	"time"
)

// TestLapNilSink: without a sink a lap does nothing, and a parker still
// parks.
func TestLapNilSink(t *testing.T) {
	var hs *HostStages
	if got := hs.lap(stagePrefix); got != stageNone {
		t.Errorf("nil sink's lap returned stage %d, want stageNone", got)
	}
	ready := make(chan struct{})
	close(ready)
	if err := hs.parker(nil).Park(ready); err != nil {
		t.Errorf("nil sink's parker: %v", err)
	}
}

// TestLapReturnsStageLeft: each lap charges the stage it closes and
// returns it; the stopped cursor charges nothing.
func TestLapReturnsStageLeft(t *testing.T) {
	hs := &HostStages{}
	for _, c := range []struct{ next, left stage }{
		{stagePrefix, stageNone},
		{stageTimedLoop, stagePrefix},
		{stageVerify, stageTimedLoop},
		{stageNone, stageVerify},
		{stageNone, stageNone},
	} {
		time.Sleep(time.Millisecond)
		if got := hs.lap(c.next); got != c.left {
			t.Errorf("lap to %d left stage %d, want %d", c.next, got, c.left)
		}
	}
	if hs.Prefix <= 0 || hs.TimedLoop <= 0 || hs.Verify <= 0 {
		t.Errorf("a stage the cursor passed charges nothing: %+v", hs)
	}
	if hs.Record != 0 || hs.Fork != 0 || hs.Extrapolate != 0 || hs.FreeRunTail != 0 {
		t.Errorf("a stage the cursor never entered charges time: %+v", hs)
	}
}

// TestLapParkInPrefix: a park inside Prefix lands in Record, and the
// cursor resumes Prefix afterwards.
func TestLapParkInPrefix(t *testing.T) {
	const parked = 50 * time.Millisecond
	hs := &HostStages{}
	hs.lap(stagePrefix)
	park := hs.parker(func(ready <-chan struct{}) error {
		time.Sleep(parked)
		return nil
	})
	if err := park.Park(nil); err != nil {
		t.Fatal(err)
	}
	if hs.at != stagePrefix {
		t.Errorf("after the park the cursor is in stage %d, want stagePrefix", hs.at)
	}
	if left := hs.lap(stageNone); left != stagePrefix {
		t.Errorf("closing left stage %d, want stagePrefix", left)
	}
	if hs.Record < parked {
		t.Errorf("Record %v, want the %v parked", hs.Record, parked)
	}
	if hs.Prefix >= parked {
		t.Errorf("Prefix %v includes the %v parked", hs.Prefix, parked)
	}
}
