package omp

import "upmgo/internal/machine"

// Critical sections (OpenMP CRITICAL): mutual exclusion plus
// virtual-time serialisation — a thread entering a section that another
// thread occupied until virtual time T resumes no earlier than T, so the
// simulated cost of contended critical sections is the serialised sum of
// their bodies, as on a real machine. The paper's discussion of
// synchronisation overhead as OpenMP's scalability limit is exactly about
// constructs like this one.
//
// Members only interleave where one blocks, so exclusion matters only
// when a section body itself waits (say, on an EventSet): a member that
// finds the section occupied yields until it is free. Entry order is
// therefore fixed by thread ids, not host scheduling.

type critSection struct {
	busy bool  // a member is inside
	end  int64 // virtual time the section was last held until
}

// critCosts: acquiring an uncontended lock and releasing it (a couple of
// coherent read-modify-writes).
const (
	critEnterCost = 300 * 1000 // 300 ns in ps
	critExitCost  = 200 * 1000
)

// Critical executes f under the named critical section. All sections with
// the same name exclude each other, as in OpenMP; the empty name is the
// anonymous section.
func (tr *Thread) Critical(name string, f func(c *machine.CPU)) {
	t := tr.team
	if rec := t.m.Recorder(); rec != nil {
		// Entry order and the section's clock hand-off depend on timing.
		rec.Decline("critical section")
	}
	if t.crit == nil {
		t.crit = make(map[string]*critSection)
	}
	cs, ok := t.crit[name]
	if !ok {
		cs = &critSection{}
		t.crit[name] = cs
	}
	if cs.busy {
		l := tr.lane
		l.crit, l.name = cs, name
		l.block(atCritical)
	}
	cs.busy = true
	defer func() { cs.busy = false }()
	if cs.end > tr.CPU.Now() {
		tr.CPU.SetClock(cs.end)
	}
	tr.CPU.Advance(critEnterCost)
	f(tr.CPU)
	tr.CPU.Advance(critExitCost)
	cs.end = tr.CPU.Now()
}
