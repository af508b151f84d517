// Package omp implements the OpenMP-like execution model of the paper on
// top of the simulated machine: fork/join parallel regions, worksharing
// loops with the OpenMP SCHEDULE kinds (static, static-chunked, dynamic,
// guided), barriers, master/single/critical constructs and reductions.
//
// The runtime executes each team member as a coroutine bound to one
// simulated CPU. The goroutine that calls Parallel drives the members in
// thread-id order, each until it blocks, so a run's host interleaving —
// and with it first-touch faults and coherence on shared lines — depends
// on thread ids alone and full-width runs are bit-reproducible. All
// *simulated* timing flows through the per-CPU virtual clocks and the
// barrier settlement in the machine package. Fork, join and barrier
// overheads are charged explicitly; the paper's discussion of OpenMP
// parallelism-management overhead ("critical task size") corresponds to
// these constants.
package omp

import (
	"fmt"

	"upmgo/internal/machine"
	"upmgo/internal/trace"
)

// Schedule selects how loop iterations map to threads.
type Schedule struct {
	kind  schedKind
	chunk int
}

type schedKind int

const (
	schedStatic schedKind = iota
	schedStaticChunk
	schedDynamic
	schedGuided
)

// Static partitions the iteration space into one contiguous block per
// thread (OpenMP SCHEDULE(STATIC)). This is the schedule the NAS codes
// use; it makes iteration-to-thread mapping, and hence first-touch page
// placement, deterministic.
func Static() Schedule { return Schedule{kind: schedStatic} }

// StaticChunk deals chunks of the given size round-robin
// (SCHEDULE(STATIC, chunk)).
func StaticChunk(chunk int) Schedule { return Schedule{kind: schedStaticChunk, chunk: chunk} }

// Dynamic hands out chunks on demand (SCHEDULE(DYNAMIC, chunk)). Each
// member yields after every chunk, so chunks go round-robin in thread-id
// order while every member is in the loop; the NAS reproductions do not
// use it.
func Dynamic(chunk int) Schedule { return Schedule{kind: schedDynamic, chunk: max(1, chunk)} }

// Guided hands out exponentially shrinking chunks (SCHEDULE(GUIDED)),
// dealt like Dynamic's.
func Guided(minChunk int) Schedule { return Schedule{kind: schedGuided, chunk: max(1, minChunk)} }

// Team is a fork/join group of simulated threads pinned 1:1 onto the
// machine's CPUs in id order (the paper runs on an idle machine, so we
// model perfect, stable thread-to-processor binding).
type Team struct {
	m        *machine.Machine
	n        int
	serial   bool
	binding  []int          // thread i runs on CPU binding[i]
	cpuList  []*machine.CPU // cpus() cache; SetBinding clears it
	barrier  clockBarrier
	lastJoin int64 // time of the previous join; serial sections span from here

	// crew.lanes[i] runs member i (see lane.go); started by the first
	// non-serial region.
	crew *crew

	red struct {
		vals []float64
		out  float64
	}

	crit map[string]*critSection
}

// NewTeam creates a team of n threads on m. n must be between 1 and the
// machine's CPU count.
func NewTeam(m *machine.Machine, n int) (*Team, error) {
	if n < 1 || n > m.NumCPUs() {
		return nil, fmt.Errorf("omp: team size %d out of range 1..%d", n, m.NumCPUs())
	}
	t := &Team{m: m, n: n, binding: make([]int, n)}
	for i := range t.binding {
		t.binding[i] = i
	}
	t.red.vals = make([]float64, n)
	return t, nil
}

// MustTeam is NewTeam for statically known sizes.
func MustTeam(m *machine.Machine, n int) *Team {
	t, err := NewTeam(m, n)
	if err != nil {
		panic(err)
	}
	return t
}

// Size returns the number of threads.
func (t *Team) Size() int { return t.n }

// Machine returns the underlying machine.
func (t *Team) Machine() *machine.Machine { return t.m }

// SetSerial switches the team to serial execution: thread bodies run one
// after another, to completion, on the calling goroutine, so every
// thread's first touches precede the next thread's. The NAS drivers use
// it for the cold-start placement iteration. Restrictions: in
// serial mode barriers degenerate (no cross-thread rendezvous is possible),
// so region bodies must not consume values produced by *other* threads
// between barriers — the cold-start iteration discards its results, so
// this is safe there — and Dynamic/Guided schedules panic. Virtual-time
// settlement still happens once per barrier phase, attributed when the
// last thread passes.
func (t *Team) SetSerial(serial bool) { t.serial = serial }

// SetBinding changes the thread-to-CPU mapping: thread i subsequently
// runs on CPU perm[i]. perm must be a permutation of distinct CPU ids.
// The paper assumes stable bindings on an idle machine and defers
// scheduler interference to its companion work; this hook models that
// interference — an OS that migrates threads invalidates the locality any
// page placement or migration engine established, which is what UPMlib's
// reactivation then repairs.
func (t *Team) SetBinding(perm []int) error {
	if len(perm) != t.n {
		return fmt.Errorf("omp: binding has %d entries for a team of %d", len(perm), t.n)
	}
	seen := make(map[int]bool, t.n)
	for _, c := range perm {
		if c < 0 || c >= t.m.NumCPUs() || seen[c] {
			return fmt.Errorf("omp: binding %v is not a permutation of distinct CPU ids", perm)
		}
		seen[c] = true
	}
	// The new CPUs inherit the team's notion of time.
	now := t.Master().Now()
	copy(t.binding, perm)
	t.cpuList = nil
	for _, c := range t.cpus() {
		if c.Now() < now {
			c.SetClock(now)
		}
	}
	return nil
}

// Binding returns a copy of the current thread-to-CPU mapping.
func (t *Team) Binding() []int { return append([]int(nil), t.binding...) }

// Thread is the per-member view inside a parallel region.
type Thread struct {
	ID   int
	CPU  *machine.CPU
	team *Team
	lane *lane
}

// Parallel runs body on every team member (the OpenMP PARALLEL
// construct). The master's clock plus the fork overhead seeds every
// member's clock; join settles the final region and leaves the master
// clock at the join time. Nested Parallel calls are not supported.
func (t *Team) Parallel(body func(tr *Thread)) { t.parallel("", body) }

// ParallelNamed is Parallel with a region label for the trace layer: the
// fork and join events carry the name, so a trace summary can break the
// run down by phase (compute_rhs, x_solve, ...) the way the paper's
// Figure 5 does. With no tracer attached the name is inert.
func (t *Team) ParallelNamed(name string, body func(tr *Thread)) { t.parallel(name, body) }

func (t *Team) parallel(name string, body func(tr *Thread)) {
	if t.m.FreeRun() {
		// Free-run: clocks are frozen and Settle/SetClock/Tracer are
		// inert, so skip the timing choreography and just execute the
		// bodies — barriers and reductions still rendezvous so the
		// kernel's numerics come out bit-identical to a simulated region.
		t.runBodies(body)
		return
	}
	master := t.Master()
	rec := t.m.Recorder()
	if rec != nil {
		// Log the region for stream replay; each member's share ends
		// with an end record (see machine.Recorder).
		rec.Fork(name)
		inner := body
		body = func(tr *Thread) {
			inner(tr)
			rec.End(tr.CPU)
		}
	}
	// Settle the serial section the master executed since the last join,
	// so its access tallies do not leak into the parallel region.
	master.SetClock(t.m.Settle([]*machine.CPU{master}, t.lastJoin))
	// The fork event is stamped before the fork overhead and the join
	// event after the join barrier settles, so named region spans and the
	// serial gaps between them tile the timeline exactly (the trace
	// summary's sum contract).
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: master.Now(), CPU: master.ID, Kind: trace.EvRegionFork, Name: name})
	}
	start := master.Now() + t.m.Lat.Fork
	cpus := t.cpus()
	for _, c := range cpus {
		c.SetClock(start)
	}
	t.barrier.reset(start)
	t.runBodies(body)
	if rec != nil {
		rec.Join()
	}
	// Implicit join barrier: settle the last region.
	end := t.m.Settle(cpus, t.barrier.regionStart) + t.m.Lat.BarrierBase + int64(t.n)*t.m.Lat.BarrierPerCPU
	for _, c := range cpus {
		c.SetClock(end)
	}
	t.lastJoin = end
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: end, CPU: master.ID, Kind: trace.EvRegionJoin, Name: name})
	}
}

// cpus returns the CPUs the members run on, in thread order. Callers
// must not modify the slice.
func (t *Team) cpus() []*machine.CPU {
	if t.cpuList == nil {
		t.cpuList = make([]*machine.CPU, t.n)
		for i := range t.cpuList {
			t.cpuList[i] = t.m.CPU(t.binding[i])
		}
	}
	return t.cpuList
}

// Master returns the master CPU (thread 0's processor) for serial
// sections between parallel regions.
func (t *Team) Master() *machine.CPU { return t.m.CPU(t.binding[0]) }

// Barrier synchronises the team: contention settlement for the region
// since the previous barrier, then clock alignment plus barrier overhead.
// It must be called by every member (as in OpenMP).
func (tr *Thread) Barrier() {
	tr.team.barrier.wait(tr, nil)
}

// For executes the loop [lo, hi) with the given schedule; body receives
// the thread's CPU and a [from, to) sub-range. A worksharing barrier
// follows unless nowait; pass Nowait to skip it (OpenMP NOWAIT).
func (tr *Thread) For(lo, hi int, s Schedule, body func(c *machine.CPU, from, to int), opts ...Option) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	switch s.kind {
	case schedStatic:
		n := hi - lo
		if n > 0 {
			chunk := (n + tr.team.n - 1) / tr.team.n
			from := lo + tr.ID*chunk
			to := min(from+chunk, hi)
			if from < to {
				body(tr.CPU, from, to)
			}
		}
	case schedStaticChunk:
		for from := lo + tr.ID*s.chunk; from < hi; from += tr.team.n * s.chunk {
			body(tr.CPU, from, min(from+s.chunk, hi))
		}
	case schedDynamic, schedGuided:
		if tr.team.serial {
			panic("omp: Dynamic and Guided schedules are invalid in serial mode")
		}
		b := &tr.team.barrier
		if rec := tr.team.m.Recorder(); rec != nil {
			// Chunks go to whichever member asks next, which the stream
			// replay does not reproduce.
			rec.Decline("dynamic or guided schedule")
		}
		for from := lo + b.dyn; from < hi; from = lo + b.dyn {
			take := s.chunk
			if s.kind == schedGuided {
				take = max(s.chunk, (hi-from)/(2*tr.team.n))
			}
			b.dyn += take
			body(tr.CPU, from, min(from+take, hi))
			tr.lane.block(ready) // the next chunk goes to the next member
		}
	}
	if !o.nowait {
		tr.Barrier()
		if s.kind == schedDynamic || s.kind == schedGuided {
			if tr.ID == 0 {
				tr.team.barrier.dyn = 0
			}
			tr.Barrier() // all see the reset before the next shared loop
		}
	} else if s.kind == schedDynamic || s.kind == schedGuided {
		panic("omp: Nowait is not supported with Dynamic/Guided schedules")
	}
}

// Option modifies a worksharing construct.
type Option func(*options)

type options struct{ nowait bool }

// Nowait removes the implicit barrier at the end of a worksharing loop.
func Nowait(o *options) { o.nowait = true }

// ReduceSum performs a barrier-synchronised sum reduction and returns the
// total to every thread.
func (tr *Thread) ReduceSum(v float64) float64 {
	t := tr.team
	t.red.vals[tr.ID] = v
	tr.team.barrier.wait(tr, func() {
		s := 0.0
		for _, x := range t.red.vals[:t.n] {
			s += x
		}
		t.red.out = s
	})
	out := t.red.out
	tr.Barrier() // keep red.out stable until everyone has read it
	return out
}

// ReduceMax performs a barrier-synchronised max reduction.
func (tr *Thread) ReduceMax(v float64) float64 {
	t := tr.team
	t.red.vals[tr.ID] = v
	tr.team.barrier.wait(tr, func() {
		s := t.red.vals[0]
		for _, x := range t.red.vals[1:t.n] {
			if x > s {
				s = x
			}
		}
		t.red.out = s
	})
	out := t.red.out
	tr.Barrier()
	return out
}

// Single runs f on thread 0 only, with barriers on both sides so that all
// threads observe its effects (OpenMP SINGLE + implicit barrier; we pin it
// to the master for determinism, making it equivalent to MASTER+BARRIER).
func (tr *Thread) Single(f func(c *machine.CPU)) {
	tr.Barrier()
	if tr.ID == 0 {
		f(tr.CPU)
	}
	tr.Barrier()
}

// Sections distributes the given section bodies over threads round-robin
// (OpenMP SECTIONS) and barriers at the end.
func (tr *Thread) Sections(sections ...func(c *machine.CPU)) {
	for i := tr.ID; i < len(sections); i += tr.team.n {
		sections[i](tr.CPU)
	}
	tr.Barrier()
}

// clockBarrier is a reusable phase-counting barrier that also performs
// virtual-time settlement: the last thread to arrive settles the region
// with the machine's contention model and establishes the new region
// start.
type clockBarrier struct {
	count       int    // members arrived in the current phase
	phase       uint64 // completed barriers
	regionStart int64
	dyn         int // iterations handed out by the current dynamic/guided loop
}

func (b *clockBarrier) reset(start int64) {
	b.regionStart = start
	b.count = 0
	b.dyn = 0
}

// wait blocks until all team members arrive. The last arriver runs
// lastFn (if any), settles clocks, and opens the next phase. It yields
// too, so every phase starts with the members in thread-id order.
func (b *clockBarrier) wait(tr *Thread, lastFn func()) {
	t := tr.team
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: tr.CPU.Now(), CPU: tr.CPU.ID, Kind: trace.EvBarrierArrive})
	}
	if rec := t.m.Recorder(); rec != nil {
		rec.Arrive(tr.CPU)
	}
	if t.serial {
		// In serial mode all members of the "parallel" region run
		// sequentially; barriers degenerate to settlement once per
		// phase. We emulate by settling when thread n-1 arrives.
		if tr.ID == t.n-1 {
			if lastFn != nil {
				lastFn()
			}
			b.settle(t)
		}
		return
	}
	tr.lane.phase = b.phase
	b.count++
	if b.count == t.n {
		if lastFn != nil {
			lastFn()
		}
		b.settle(t)
		b.count = 0
		b.phase++
	}
	tr.lane.block(atBarrier)
}

func (b *clockBarrier) settle(t *Team) {
	if t.m.FreeRun() {
		// Clocks are frozen; the rendezvous above was the whole point.
		return
	}
	cpus := t.cpus()
	end := t.m.Settle(cpus, b.regionStart) + t.m.Lat.BarrierBase + int64(t.n)*t.m.Lat.BarrierPerCPU
	for _, c := range cpus {
		c.SetClock(end)
	}
	b.regionStart = end
	// The release is a machine-level quiescent point (hooks have run), not
	// one thread's action; it goes on the kernel lane.
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: end, CPU: trace.KernelCPU, Kind: trace.EvBarrierRelease, Arg0: int64(t.n)})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
