package omp

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strings"

	"upmgo/internal/machine"
)

// A lane is the coroutine that runs one team member. The team's lanes are
// driven by the goroutine that called Parallel, in thread-id order: each
// member runs until it blocks — at a barrier, an EventSet wait, a busy
// critical section, or the end of a Dynamic/Guided chunk — and then
// yields back to the driver, which resumes the next member whose wait is
// satisfied. The host interleaving is therefore a function of thread ids
// alone, which is what makes full-width runs bit-reproducible.
//
// Lanes persist until the team rests (Rest), so a run's thousands of
// regions reuse n coroutines. The first non-serial region run on lanes
// starts them; ParallelSteps never does.
// Between regions a lane holds no Team reference (its body and Thread
// fields are cleared), so the crew's finalizer can stop the lanes once
// the team becomes unreachable, if nothing has rested it before.
type lane struct {
	tr    Thread
	body  func(*Thread)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	wait  waitKind
	phase uint64       // atBarrier: the barrier phase being waited out
	cell  *eventCell   // atEvent: the awaited cell
	owner int          // atEvent: the awaited cell's owner ...
	tag   int          // ... and tag
	crit  *critSection // atCritical: the occupied section
	name  string       // atCritical: its name
}

// waitKind is what a suspended lane waits for.
type waitKind uint8

const (
	ready      waitKind = iota // resumable at once (between Dynamic/Guided chunks)
	atBarrier                  // until the barrier phase moves on
	atEvent                    // until the awaited cell is posted
	atCritical                 // until the critical section is free
	finished                   // the member's body returned
)

// errLaneStopped unwinds a lane that stop resumed mid-body.
var errLaneStopped = errors.New("omp: lane stopped")

func newLane(id int) *lane {
	l := &lane{wait: finished}
	l.tr.ID = id
	l.tr.lane = l
	l.next, l.stop = iter.Pull(l.run)
	return l
}

// run is the lane's coroutine: each resume from the finished state runs
// the body installed for the new region.
func (l *lane) run(yield func(struct{}) bool) {
	l.yield = yield
	defer func() {
		if p := recover(); p != nil && p != errLaneStopped {
			panic(p) // iter.Pull hands it on to the driver
		}
	}()
	for {
		l.body(&l.tr)
		l.body, l.tr.team, l.tr.CPU, l.wait = nil, nil, nil, finished
		if !yield(struct{}{}) {
			return
		}
	}
}

// block suspends the member until the driver finds its wait satisfied.
func (l *lane) block(w waitKind) {
	l.wait = w
	if !l.yield(struct{}{}) {
		panic(errLaneStopped)
	}
	l.wait = ready
}

// satisfied reports whether the lane's wait is over.
func (l *lane) satisfied(t *Team) bool {
	switch l.wait {
	case atBarrier:
		return t.barrier.phase != l.phase
	case atEvent:
		return l.cell.posted
	case atCritical:
		return !l.crit.busy
	case finished:
		return false
	}
	return true
}

func (l *lane) String() string {
	switch l.wait {
	case atBarrier:
		return fmt.Sprintf("thread %d at barrier phase %d", l.tr.ID, l.phase)
	case atEvent:
		return fmt.Sprintf("thread %d waits for event (%d,%d)", l.tr.ID, l.owner, l.tag)
	case atCritical:
		return fmt.Sprintf("thread %d waits for critical section %q", l.tr.ID, l.name)
	case finished:
		return fmt.Sprintf("thread %d finished", l.tr.ID)
	}
	return fmt.Sprintf("thread %d ready", l.tr.ID)
}

// crew holds a team's lanes in an allocation that only the Team
// references. Its finalizer stops the lanes once the team is unreachable;
// a finalizer on the Team itself would keep the team's Machine alive for
// one more GC cycle.
type crew struct{ lanes []*lane }

func newCrew(n int) *crew {
	c := &crew{lanes: make([]*lane, n)}
	for i := range c.lanes {
		c.lanes[i] = newLane(i)
	}
	runtime.SetFinalizer(c, (*crew).stop)
	return c
}

// stop unwinds every lane, whether suspended mid-body or idle. Stopping
// a stopped lane does nothing.
func (c *crew) stop() {
	for _, l := range c.lanes {
		l.stop()
	}
}

// runBodies executes body once per member: in serial mode one after
// another on the calling goroutine, otherwise on the team's lanes, driven
// in thread-id order until every member has returned. A panic in any
// member, or a pass over the live members in which none can proceed (a
// deadlock, such as mismatched barriers), stops every lane and panics on
// the calling goroutine.
func (t *Team) runBodies(body func(tr *Thread)) {
	if t.serial {
		for i, c := range t.cpus() {
			body(&Thread{ID: i, CPU: c, team: t})
		}
		return
	}
	if t.crew == nil {
		t.crew = newCrew(t.n)
	}
	lanes := t.crew.lanes
	for i, c := range t.cpus() {
		l := lanes[i]
		l.tr.CPU, l.tr.team, l.body, l.wait = c, t, body, ready
	}
	done := false
	defer func() {
		if !done {
			t.abort()
		}
	}()
	for live := t.n; live > 0; {
		resumed := false
		for _, l := range lanes {
			if !l.satisfied(t) {
				continue
			}
			l.next()
			resumed = true
			if l.wait == finished {
				live--
			}
		}
		if !resumed {
			panic(t.deadlock())
		}
	}
	done = true
}

// runSteps runs ParallelSteps' members without lanes. In serial mode
// each member runs to completion in turn and the settle comes at thread
// n-1's arrivals, as in clockBarrier.wait. Otherwise every phase steps
// the members in thread-id order, as the lanes would run them up to the
// barrier, and then settles; a phase in which some members arrive and
// others finish panics as a deadlock.
func (t *Team) runSteps(step func(c *machine.CPU) bool) {
	b := &t.barrier
	cpus := t.cpus()
	if t.serial {
		for i, c := range cpus {
			for step(c) {
				t.arrive(c)
				if i == t.n-1 {
					b.settle(t)
				}
			}
		}
		return
	}
	arrived := make([]bool, t.n)
	for {
		count := 0
		for i, c := range cpus {
			arrived[i] = step(c)
			if arrived[i] {
				t.arrive(c)
				count++
			}
		}
		switch count {
		case 0:
			return
		case t.n:
			b.settle(t)
			b.phase++
		default:
			var msg strings.Builder
			msg.WriteString(deadlockMsg)
			for i, a := range arrived {
				if a {
					fmt.Fprintf(&msg, "\n\tthread %d at barrier phase %d", i, b.phase)
				} else {
					fmt.Fprintf(&msg, "\n\tthread %d finished", i)
				}
			}
			panic(msg.String())
		}
	}
}

const deadlockMsg = "omp: deadlock, no team member can proceed:"

func (t *Team) deadlock() string {
	var b strings.Builder
	b.WriteString(deadlockMsg)
	for _, l := range t.crew.lanes {
		b.WriteString("\n\t")
		b.WriteString(l.String())
	}
	return b.String()
}

// abort cleans up after a region that panicked: it stops the lanes and
// drops them, so the next region starts fresh ones.
func (t *Team) abort() {
	t.crew.stop()
	t.crew = nil
	t.barrier.count, t.barrier.dyn = 0, 0
}

// Rest stops the team's lanes between regions, so that an idle team
// holds no coroutine; the next region starts fresh ones.
func (t *Team) Rest() {
	if t.crew != nil {
		t.crew.stop()
		t.crew = nil
	}
}
