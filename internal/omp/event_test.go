package omp

import (
	"sync/atomic"
	"testing"

	"upmgo/internal/machine"
)

func TestEventSetPipelineOrder(t *testing.T) {
	tm := newTeam(t, 4)
	ev := NewEventSet(tm, 8)
	// Each thread appends (thread, stage) tokens; the pipeline forces
	// thread i to pass stage s only after thread i-1 did.
	var order [4 * 8]int64
	var pos atomic.Int64
	tm.Parallel(func(tr *Thread) {
		for s := 0; s < 8; s++ {
			if tr.ID > 0 {
				ev.Wait(tr, tr.ID-1, s)
			}
			order[pos.Add(1)-1] = int64(tr.ID*100 + s)
			tr.CPU.Advance(1000)
			ev.Post(tr, s)
		}
	})
	// Check the pipeline invariant: for every thread i>0 and stage s,
	// (i,s) appears after (i-1,s).
	idx := map[int64]int{}
	for i, tok := range order {
		idx[tok] = i
	}
	for i := 1; i < 4; i++ {
		for s := 0; s < 8; s++ {
			if idx[int64(i*100+s)] < idx[int64((i-1)*100+s)] {
				t.Fatalf("thread %d passed stage %d before thread %d", i, s, i-1)
			}
		}
	}
}

func TestEventWaitPropagatesVirtualTime(t *testing.T) {
	tm := newTeam(t, 2)
	var waiterTime, posterTime int64
	ev := NewEventSet(tm, 1)
	tm.Parallel(func(tr *Thread) {
		if tr.ID == 0 {
			tr.CPU.Advance(5_000_000) // the poster is 5 us ahead
			ev.Post(tr, 0)
			posterTime = tr.CPU.Now()
		} else {
			ev.Wait(tr, 0, 0)
			waiterTime = tr.CPU.Now()
		}
	})
	if waiterTime < posterTime {
		t.Errorf("waiter resumed at %d, before the post at %d", waiterTime, posterTime)
	}
}

func TestEventResetClearsPosts(t *testing.T) {
	tm := newTeam(t, 1)
	ev := NewEventSet(tm, 2)
	tm.Parallel(func(tr *Thread) {
		ev.Post(tr, 0)
	})
	ev.Reset()
	// After reset, a serial-mode wait sees an unposted cell (clock 0).
	tm.SetSerial(true)
	tm.Parallel(func(tr *Thread) {
		before := tr.CPU.Now()
		ev.Wait(tr, 0, 0)
		if tr.CPU.Now() < before {
			t.Error("clock went backwards")
		}
	})
}

func TestEventSetPanicsOutOfRange(t *testing.T) {
	tm := newTeam(t, 2)
	ev := NewEventSet(tm, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on out-of-range event")
		}
	}()
	tm.Parallel(func(tr *Thread) {
		if tr.ID == 1 {
			ev.Post(tr, 5)
		}
	})
}

func TestCriticalMutualExclusionAndSerialisedTime(t *testing.T) {
	tm := newTeam(t, 8)
	var inside, max32 atomic.Int32
	count := 0
	tm.Parallel(func(tr *Thread) {
		for i := 0; i < 10; i++ {
			tr.Critical("ctr", func(c *machine.CPU) {
				if v := inside.Add(1); v > max32.Load() {
					max32.Store(v)
				}
				count++ // safe: inside the section
				c.Advance(10_000)
				inside.Add(-1)
			})
		}
	})
	if count != 80 {
		t.Errorf("count = %d, want 80 (lost updates)", count)
	}
	if max32.Load() != 1 {
		t.Errorf("max concurrency in section = %d, want 1", max32.Load())
	}
	// Virtual time must reflect serialisation: 80 sections of >=10 ns
	// body plus enter/exit costs cannot complete before their sum.
	minSpan := int64(80 * (10_000 + critEnterCost + critExitCost))
	if got := tm.Master().Now(); got < minSpan {
		t.Errorf("join at %d ps, below the serialised bound %d", got, minSpan)
	}
}

func TestNamedCriticalSectionsAreIndependent(t *testing.T) {
	tm := newTeam(t, 2)
	ev := NewEventSet(tm, 1)
	// Thread 1 parks inside section "a" until thread 0 has passed
	// section "b": if the names shared a lock this would deadlock.
	tm.Parallel(func(tr *Thread) {
		if tr.ID == 1 {
			tr.Critical("a", func(c *machine.CPU) {
				ev.Wait(tr, 0, 0)
			})
		} else {
			tr.Critical("b", func(c *machine.CPU) {})
			ev.Post(tr, 0)
		}
	})
}
