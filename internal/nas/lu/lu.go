// Package lu is an extension benchmark beyond the paper's five codes: a
// reproduction of NAS LU's memory behaviour — an SSOR (symmetric
// successive over-relaxation) solver whose lower- and upper-triangular
// sweeps carry loop dependences in all three grid directions. The NAS
// OpenMP code parallelises the sweeps with software pipelining: threads
// own j-bands and hand k-planes down (forward sweep) or up (backward
// sweep) the thread chain with point-to-point post/wait flags instead of
// barriers. That wavefront pattern — fine-grained producer/consumer
// locality between *neighbouring* threads — is qualitatively different
// from the fork/join codes the paper evaluates, which is exactly why it
// makes an interesting extra data point for the placement and migration
// experiments.
//
// The solver is numerically real: SSOR on the 3-D Poisson equation with
// the same manufactured-solution verification as BT/SP.
package lu

import (
	"fmt"
	"math"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
)

// LU is one problem instance.
type LU struct {
	m     *machine.Machine
	n     int
	iters int
	scale int
	omega float64

	u, f   *machine.Array3
	target []float64
	res0   float64

	events *omp.EventSet // rebuilt per team in Step
	team   *omp.Team
}

// New builds an LU instance. It satisfies nas.Builder.
func New(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
	n, iters := 10, 5
	switch class {
	case nas.ClassW:
		n, iters = 34, 20
	case nas.ClassA:
		n, iters = 64, 50
	}
	l := &LU{m: m, n: n, iters: iters, scale: scale, omega: 1.2}
	l.u = m.NewArray3("u", n, n, n)
	l.f = m.NewArray3("f", n, n, n)
	l.buildProblem()
	l.Reinit()
	l.res0 = l.residualNorm()
	return l
}

// Name returns "LU".
func (l *LU) Name() string { return "LU" }

// DefaultIterations returns the class's SSOR iteration count.
func (l *LU) DefaultIterations() int { return l.iters }

// HasPhase reports no record–replay phase: the two sweeps have the same
// j-band ownership, so there is nothing to redistribute between them.
func (l *LU) HasPhase() bool { return false }

// HotPages returns the spans of u and f.
func (l *LU) HotPages() [][2]uint64 {
	var out [][2]uint64
	for _, a := range []*machine.Array3{l.u, l.f} {
		lo, hi := a.PageRange()
		out = append(out, [2]uint64{lo, hi})
	}
	return out
}

// idx flattens grid point (k,j,i) into the j-major storage order: the
// sweeps are parallelised over j-bands, so j must be the slowest-varying
// index for a thread's band to be a contiguous page range (the property
// first-touch placement and the migration engines rely on).
func (l *LU) idx(k, j, i int) int { return (j*l.n+k)*l.n + i }

// buildProblem manufactures f = -Lap_h(g) for g = sin(pi x)sin(pi y)
// sin(pi z), making g the exact discrete solution of -Lap_h u = f.
func (l *LU) buildProblem() {
	n := l.n
	h := 1.0 / float64(n-1)
	sn := nas.SinAxis(n)
	l.target = make([]float64, n*n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				l.target[l.idx(k, j, i)] = sn[k] * sn[j] * sn[i]
			}
		}
	}
	h2 := 1 / (h * h)
	f := l.f.Data()
	t := l.target
	idx := l.idx
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				lap := (t[idx(k+1, j, i)] + t[idx(k-1, j, i)] +
					t[idx(k, j+1, i)] + t[idx(k, j-1, i)] +
					t[idx(k, j, i+1)] + t[idx(k, j, i-1)] -
					6*t[idx(k, j, i)]) * h2
				f[idx(k, j, i)] = -lap
			}
		}
	}
}

// Reinit zeroes the solution.
func (l *LU) Reinit() { clear(l.u.Data()) }

// InitTouch writes u and f with the sweeps' j-band partitioning.
func (l *LU) InitTouch(t *omp.Team) {
	n := l.n
	fd := l.f.Data()
	t.Parallel(func(tr *omp.Thread) {
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			lo, hi := from, to
			if lo == 1 {
				lo = 0
			}
			if hi == n-1 {
				hi = n
			}
			for j := lo; j < hi; j++ {
				for k := 0; k < n; k++ {
					for i := 0; i < n; i++ {
						l.u.Set(c, l.idx(k, j, i), 0)
						l.f.Set(c, l.idx(k, j, i), fd[l.idx(k, j, i)])
					}
				}
			}
		})
	})
}

// Step runs one SSOR iteration: a forward (lower-triangular) sweep
// pipelined down the thread chain and a backward (upper-triangular) sweep
// pipelined up it.
func (l *LU) Step(t *omp.Team, h *nas.Hooks) {
	if l.events == nil || l.team != t {
		l.events = omp.NewEventSet(t, l.n)
		l.team = t
	}
	for s := 0; s < l.scale; s++ {
		l.sweep(t, false)
		l.sweep(t, true)
	}
}

// sweep performs one Gauss-Seidel pass. Threads own j-bands; the loop
// dependence in j means thread tr must not touch plane k until its
// lower-j (forward) or higher-j (backward) neighbour has finished that
// plane — the NAS LU pipeline.
func (l *LU) sweep(t *omp.Team, backward bool) {
	n := l.n
	h2 := float64(n-1) * float64(n-1)
	invh2 := 1.0 / h2
	ev := l.events
	// Static partition arithmetic: threads at the tail may own no j rows
	// and thus never post; nobody must wait on them.
	chunk := (n - 2 + t.Size() - 1) / t.Size()
	hasWork := func(thread int) bool { return 1+thread*chunk < n-1 }
	t.Parallel(func(tr *omp.Thread) {
		if tr.ID == 0 {
			ev.Reset()
		}
		tr.Barrier()
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, jFrom, jTo int) {
			for kk := 1; kk < n-1; kk++ {
				k := kk
				if backward {
					k = n - 1 - kk
				}
				// Wait for the j-neighbour's progress on this plane.
				if !backward && tr.ID > 0 {
					ev.Wait(tr, tr.ID-1, k)
				}
				if backward && tr.ID < t.Size()-1 && hasWork(tr.ID+1) {
					ev.Wait(tr, tr.ID+1, k)
				}
				for jj := jFrom; jj < jTo; jj++ {
					j := jj
					if backward {
						j = jFrom + jTo - 1 - jj
					}
					for ii := 1; ii < n-1; ii++ {
						i := ii
						if backward {
							i = n - 1 - ii
						}
						gs := (l.u.Get(c, l.idx(k+1, j, i)) + l.u.Get(c, l.idx(k-1, j, i)) +
							l.u.Get(c, l.idx(k, j+1, i)) + l.u.Get(c, l.idx(k, j-1, i)) +
							l.u.Get(c, l.idx(k, j, i+1)) + l.u.Get(c, l.idx(k, j, i-1)) +
							l.f.Get(c, l.idx(k, j, i))*invh2) / 6
						old := l.u.Get(c, l.idx(k, j, i))
						l.u.Set(c, l.idx(k, j, i), (1-l.omega)*old+l.omega*gs)
						c.Flops(12)
					}
				}
				ev.Post(tr, k)
			}
		})
	})
}

// residualNorm evaluates ||f + Lap_h(u)|| on the host.
func (l *LU) residualNorm() float64 {
	n := l.n
	h2 := float64(n-1) * float64(n-1)
	u := l.u.Data()
	f := l.f.Data()
	idx := l.idx
	var s float64
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				lap := (u[idx(k+1, j, i)] + u[idx(k-1, j, i)] +
					u[idx(k, j+1, i)] + u[idx(k, j-1, i)] +
					u[idx(k, j, i+1)] + u[idx(k, j, i-1)] -
					6*u[idx(k, j, i)]) * h2
				r := f[idx(k, j, i)] + lap
				s += r * r
			}
		}
	}
	return math.Sqrt(s)
}

// errorNorm returns the distance from the manufactured solution.
func (l *LU) errorNorm() float64 {
	var s float64
	for i, v := range l.u.Data() {
		d := v - l.target[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Verify checks SSOR convergence.
func (l *LU) Verify() error {
	res := l.residualNorm()
	if math.IsNaN(res) || res >= 0.5*l.res0 {
		return fmt.Errorf("lu: residual %g did not decrease from %g", res, l.res0)
	}
	return nil
}

// ResidualNorm exposes the residual for tests.
func (l *LU) ResidualNorm() float64 { return l.residualNorm() }

// ErrorNorm exposes the error for tests.
func (l *LU) ErrorNorm() float64 { return l.errorNorm() }
