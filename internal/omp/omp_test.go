package omp

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"upmgo/internal/machine"
)

func newTeam(t *testing.T, n int) *Team {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTeam(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestNewTeamBounds(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	if _, err := NewTeam(m, 0); err == nil {
		t.Error("team of 0 accepted")
	}
	if _, err := NewTeam(m, 17); err == nil {
		t.Error("team of 17 accepted on a 16-CPU machine")
	}
	if _, err := NewTeam(m, 16); err != nil {
		t.Errorf("team of 16 rejected: %v", err)
	}
}

func TestParallelRunsEveryThreadOnItsCPU(t *testing.T) {
	tm := newTeam(t, 16)
	var ran [16]atomic.Int32
	tm.Parallel(func(tr *Thread) {
		if tr.CPU.ID != tr.ID {
			t.Errorf("thread %d on CPU %d", tr.ID, tr.CPU.ID)
		}
		ran[tr.ID].Add(1)
	})
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Errorf("thread %d ran %d times", i, ran[i].Load())
		}
	}
}

func TestParallelAdvancesAndSynchronisesClocks(t *testing.T) {
	tm := newTeam(t, 8)
	tm.Parallel(func(tr *Thread) {
		tr.CPU.Advance(int64(tr.ID) * 1000)
	})
	// After the join, all participating clocks equal and >= fork + max.
	want := tm.Master().Now()
	if want < 7000 {
		t.Errorf("join time %d < slowest thread's 7000", want)
	}
	for i := 0; i < 8; i++ {
		if got := tm.Machine().CPU(i).Now(); got != want {
			t.Errorf("CPU %d clock %d, want %d", i, got, want)
		}
	}
}

func TestForStaticCoversRangeExactlyOnce(t *testing.T) {
	tm := newTeam(t, 16)
	const n = 1003
	counts := make([]atomic.Int32, n)
	tm.Parallel(func(tr *Thread) {
		tr.For(0, n, Static(), func(c *machine.CPU, from, to int) {
			for i := from; i < to; i++ {
				counts[i].Add(1)
			}
		})
	})
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, counts[i].Load())
		}
	}
}

func TestForSchedulesCoverRange(t *testing.T) {
	scheds := map[string]Schedule{
		"static":      Static(),
		"staticChunk": StaticChunk(7),
		"dynamic":     Dynamic(5),
		"guided":      Guided(3),
	}
	for name, s := range scheds {
		s := s
		t.Run(name, func(t *testing.T) {
			tm := newTeam(t, 5)
			const n = 517
			counts := make([]atomic.Int32, n)
			tm.Parallel(func(tr *Thread) {
				tr.For(3, n, s, func(c *machine.CPU, from, to int) {
					for i := from; i < to; i++ {
						counts[i].Add(1)
					}
				})
			})
			for i := 0; i < 3; i++ {
				if counts[i].Load() != 0 {
					t.Errorf("iteration %d outside range executed", i)
				}
			}
			for i := 3; i < n; i++ {
				if counts[i].Load() != 1 {
					t.Fatalf("iteration %d executed %d times", i, counts[i].Load())
				}
			}
		})
	}
}

func TestForStaticPartitionIsContiguousAndOrdered(t *testing.T) {
	tm := newTeam(t, 4)
	var mu sync.Mutex
	got := map[int][2]int{}
	tm.Parallel(func(tr *Thread) {
		tr.For(0, 100, Static(), func(c *machine.CPU, from, to int) {
			mu.Lock()
			got[tr.ID] = [2]int{from, to}
			mu.Unlock()
		})
	})
	want := map[int][2]int{0: {0, 25}, 1: {25, 50}, 2: {50, 75}, 3: {75, 100}}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("thread %d got %v, want %v", id, got[id], w)
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	tm := newTeam(t, 4)
	ran := atomic.Int32{}
	tm.Parallel(func(tr *Thread) {
		tr.For(5, 5, Static(), func(c *machine.CPU, from, to int) { ran.Add(1) })
		tr.For(9, 2, Static(), func(c *machine.CPU, from, to int) { ran.Add(1) })
	})
	if ran.Load() != 0 {
		t.Errorf("body ran %d times on empty ranges", ran.Load())
	}
}

func TestTwoConsecutiveDynamicLoops(t *testing.T) {
	// The shared chunk counter must reset between loops.
	tm := newTeam(t, 4)
	const n = 100
	c1 := make([]atomic.Int32, n)
	c2 := make([]atomic.Int32, n)
	tm.Parallel(func(tr *Thread) {
		tr.For(0, n, Dynamic(9), func(c *machine.CPU, from, to int) {
			for i := from; i < to; i++ {
				c1[i].Add(1)
			}
		})
		tr.For(0, n, Dynamic(9), func(c *machine.CPU, from, to int) {
			for i := from; i < to; i++ {
				c2[i].Add(1)
			}
		})
	})
	for i := 0; i < n; i++ {
		if c1[i].Load() != 1 || c2[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d/%d times", i, c1[i].Load(), c2[i].Load())
		}
	}
}

func TestReduceSum(t *testing.T) {
	tm := newTeam(t, 16)
	var got [16]float64
	tm.Parallel(func(tr *Thread) {
		got[tr.ID] = tr.ReduceSum(float64(tr.ID + 1))
	})
	for id, v := range got {
		if v != 136 { // 1+2+...+16
			t.Errorf("thread %d saw sum %v, want 136", id, v)
		}
	}
}

func TestReduceMax(t *testing.T) {
	tm := newTeam(t, 7)
	var got [7]float64
	tm.Parallel(func(tr *Thread) {
		got[tr.ID] = tr.ReduceMax(float64((tr.ID*3)%7 + 1))
	})
	for id, v := range got {
		if v != 7 {
			t.Errorf("thread %d saw max %v, want 7", id, v)
		}
	}
}

func TestConsecutiveReductionsDoNotInterfere(t *testing.T) {
	tm := newTeam(t, 8)
	var a, b [8]float64
	tm.Parallel(func(tr *Thread) {
		a[tr.ID] = tr.ReduceSum(1)
		b[tr.ID] = tr.ReduceSum(2)
	})
	for i := 0; i < 8; i++ {
		if a[i] != 8 || b[i] != 16 {
			t.Errorf("thread %d: sums %v,%v want 8,16", i, a[i], b[i])
		}
	}
}

func TestSingleRunsOnceOnMaster(t *testing.T) {
	tm := newTeam(t, 8)
	var n atomic.Int32
	var cpu atomic.Int32
	tm.Parallel(func(tr *Thread) {
		tr.Single(func(c *machine.CPU) {
			n.Add(1)
			cpu.Store(int32(c.ID))
		})
	})
	if n.Load() != 1 {
		t.Errorf("Single body ran %d times", n.Load())
	}
	if cpu.Load() != 0 {
		t.Errorf("Single ran on CPU %d, want 0", cpu.Load())
	}
}

func TestSectionsDistributeAll(t *testing.T) {
	tm := newTeam(t, 3)
	var ran [7]atomic.Int32
	secs := make([]func(c *machine.CPU), 7)
	for i := range secs {
		i := i
		secs[i] = func(c *machine.CPU) { ran[i].Add(1) }
	}
	tm.Parallel(func(tr *Thread) {
		tr.Sections(secs...)
	})
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Errorf("section %d ran %d times", i, ran[i].Load())
		}
	}
}

func TestBarrierSynchronisesVirtualTime(t *testing.T) {
	tm := newTeam(t, 4)
	var after [4]int64
	tm.Parallel(func(tr *Thread) {
		tr.CPU.Advance(int64(tr.ID+1) * 10000)
		tr.Barrier()
		after[tr.ID] = tr.CPU.Now()
	})
	for i := 1; i < 4; i++ {
		if after[i] != after[0] {
			t.Errorf("clock after barrier differs: CPU %d at %d vs %d", i, after[i], after[0])
		}
	}
	if after[0] < 40000 {
		t.Errorf("barrier time %d < slowest thread 40000", after[0])
	}
}

func TestNowaitSkipsBarrier(t *testing.T) {
	tm := newTeam(t, 4)
	var diverged atomic.Bool
	tm.Parallel(func(tr *Thread) {
		before := tr.CPU.Now()
		tr.For(0, 4, Static(), func(c *machine.CPU, from, to int) {
			c.Advance(int64(tr.ID) * 1000)
		}, Nowait)
		if tr.CPU.Now() != before+int64(tr.ID)*1000 {
			return
		}
		if tr.ID != 0 {
			diverged.Store(true) // clocks still differ: no barrier ran
		}
	})
	if !diverged.Load() {
		t.Error("Nowait loop appears to have synchronised clocks")
	}
}

func TestSerialModeDeterministicFirstTouch(t *testing.T) {
	run := func() []int {
		m := machine.MustNew(machine.DefaultConfig())
		tm := MustTeam(m, 16)
		tm.SetSerial(true)
		a := m.NewArray("x", 16*2048) // 16 pages
		tm.Parallel(func(tr *Thread) {
			tr.For(0, a.Len(), Static(), func(c *machine.CPU, from, to int) {
				for i := from; i < to; i++ {
					a.Set(c, i, 1)
				}
			})
		})
		lo, hi := a.PageRange()
		homes := make([]int, 0, hi-lo)
		for p := lo; p < hi; p++ {
			homes = append(homes, m.PT.Home(p))
		}
		return homes
	}
	h1, h2 := run(), run()
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("page %d homed differently across identical serial runs: %d vs %d", i, h1[i], h2[i])
		}
	}
	// With a 16-page array and 16 threads on 8 nodes, first-touch must
	// spread pages over every node (2 pages per node).
	counts := make(map[int]int)
	for _, h := range h1 {
		counts[h]++
	}
	if len(counts) != 8 {
		t.Errorf("first-touch used %d nodes, want 8 (homes %v)", len(counts), h1)
	}
}

func TestSerialModePanicsOnDynamic(t *testing.T) {
	tm := newTeam(t, 2)
	tm.SetSerial(true)
	defer func() {
		if recover() == nil {
			t.Error("Dynamic in serial mode did not panic")
		}
	}()
	tm.Parallel(func(tr *Thread) {
		tr.For(0, 10, Dynamic(1), func(c *machine.CPU, from, to int) {})
	})
}

func TestMasterSerialSectionSettledAtFork(t *testing.T) {
	tm := newTeam(t, 4)
	m := tm.Machine()
	a := m.NewArray("x", 2048)
	// Master does serial work touching memory, then a parallel region
	// starts: the fork must not lose the master's elapsed time.
	master := tm.Master()
	master.Load(a.Addr(0))
	before := master.Now()
	tm.Parallel(func(tr *Thread) {})
	if tm.Master().Now() <= before {
		t.Error("join time did not advance past the serial section")
	}
}

// Property: for any range and thread count, the static schedule assigns
// every iteration exactly once and respects bounds.
func TestStaticScheduleProperty(t *testing.T) {
	f := func(loRaw, nRaw uint16, teamRaw uint8) bool {
		lo := int(loRaw % 1000)
		n := int(nRaw % 2000)
		team := int(teamRaw%16) + 1
		hi := lo + n
		m := machine.MustNew(machine.DefaultConfig())
		tm := MustTeam(m, team)
		counts := make([]atomic.Int32, n)
		tm.Parallel(func(tr *Thread) {
			tr.For(lo, hi, Static(), func(c *machine.CPU, from, to int) {
				if from < lo || to > hi {
					t.Errorf("chunk [%d,%d) outside [%d,%d)", from, to, lo, hi)
				}
				for i := from; i < to; i++ {
					counts[i-lo].Add(1)
				}
			})
		})
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSetBindingValidation(t *testing.T) {
	tm := newTeam(t, 4)
	if err := tm.SetBinding([]int{0, 1, 2}); err == nil {
		t.Error("short binding accepted")
	}
	if err := tm.SetBinding([]int{0, 1, 2, 2}); err == nil {
		t.Error("duplicate binding accepted")
	}
	if err := tm.SetBinding([]int{0, 1, 2, 99}); err == nil {
		t.Error("out-of-range binding accepted")
	}
	if err := tm.SetBinding([]int{4, 5, 6, 7}); err != nil {
		t.Errorf("valid binding rejected: %v", err)
	}
}

func TestSetBindingMovesThreads(t *testing.T) {
	tm := newTeam(t, 4)
	if err := tm.SetBinding([]int{12, 13, 14, 15}); err != nil {
		t.Fatal(err)
	}
	var onCPU [4]int
	tm.Parallel(func(tr *Thread) {
		onCPU[tr.ID] = tr.CPU.ID
	})
	for i, want := range []int{12, 13, 14, 15} {
		if onCPU[i] != want {
			t.Errorf("thread %d ran on CPU %d, want %d", i, onCPU[i], want)
		}
	}
	if tm.Master().ID != 12 {
		t.Errorf("master is CPU %d, want 12", tm.Master().ID)
	}
}

func TestSetBindingPreservesVirtualTime(t *testing.T) {
	tm := newTeam(t, 4)
	tm.Parallel(func(tr *Thread) { tr.CPU.Advance(1000000) })
	before := tm.Master().Now()
	if err := tm.SetBinding([]int{8, 9, 10, 11}); err != nil {
		t.Fatal(err)
	}
	if tm.Master().Now() < before {
		t.Errorf("time went backwards after rebinding: %d < %d", tm.Master().Now(), before)
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

func TestMismatchedBarrierPanicsInsteadOfHanging(t *testing.T) {
	tm := newTeam(t, 4)
	p := recovered(func() {
		tm.Parallel(func(tr *Thread) {
			tr.Barrier()
			if tr.ID == 2 {
				tr.Barrier() // the others never arrive
			}
		})
	})
	msg, _ := p.(string)
	for _, want := range []string{"deadlock", "thread 2 at barrier phase 1", "thread 0 finished", "thread 3 finished"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not mention %q", p, want)
		}
	}
	// The team recovers: the next region runs normally.
	var ran atomic.Int32
	tm.Parallel(func(tr *Thread) {
		tr.Barrier()
		ran.Add(1)
	})
	if ran.Load() != 4 {
		t.Errorf("region after the deadlock ran %d members, want 4", ran.Load())
	}
}

func TestMemberPanicReachesParallelCaller(t *testing.T) {
	tm := newTeam(t, 4)
	var unwound, resumed atomic.Int32
	p := recovered(func() {
		tm.Parallel(func(tr *Thread) {
			defer unwound.Add(1)
			tr.Barrier()
			if tr.ID == 2 {
				panic("boom")
			}
			tr.Barrier()
			resumed.Add(1)
		})
	})
	if p != "boom" {
		t.Fatalf("Parallel panicked with %v, want boom", p)
	}
	// Every member unwound (its deferred call ran) and none ran on past
	// the barrier it was suspended at.
	if unwound.Load() != 4 || resumed.Load() != 0 {
		t.Errorf("after the panic %d members unwound and %d ran on, want 4 and 0", unwound.Load(), resumed.Load())
	}
	var ran atomic.Int32
	tm.Parallel(func(tr *Thread) {
		tr.Barrier()
		ran.Add(1)
	})
	if ran.Load() != 4 {
		t.Errorf("region after the panic ran %d members, want 4", ran.Load())
	}
}

// Dynamic and Guided members yield after every chunk, so the chunks go
// round-robin by thread id, in ascending order, the same on every run.
func TestDynamicAndGuidedChunksRoundRobin(t *testing.T) {
	for name, s := range map[string]Schedule{"dynamic": Dynamic(5), "guided": Guided(2)} {
		t.Run(name, func(t *testing.T) {
			run := func() [][3]int {
				tm := newTeam(t, 4)
				var chunks [][3]int // thread, from, to in execution order
				tm.Parallel(func(tr *Thread) {
					tr.For(0, 100, s, func(c *machine.CPU, from, to int) {
						chunks = append(chunks, [3]int{tr.ID, from, to})
					})
				})
				return chunks
			}
			chunks := run()
			if len(chunks) < 8 {
				t.Fatalf("only %d chunks: %v", len(chunks), chunks)
			}
			next := 0
			for i, c := range chunks {
				if c[0] != i%4 || c[1] != next || c[2] <= c[1] {
					t.Fatalf("chunk %d is %v, want thread %d from %d (all: %v)", i, c, i%4, next, chunks)
				}
				next = c[2]
			}
			if next != 100 {
				t.Errorf("chunks end at %d, want 100", next)
			}
			if again := run(); !reflect.DeepEqual(chunks, again) {
				t.Errorf("chunk assignment differs between runs:\n %v\n %v", chunks, again)
			}
		})
	}
}
