// Package sp reproduces the memory behaviour of NAS SP: the scalar
// pentadiagonal ADI solver. Like BT it computes a stencil right-hand side
// and performs implicit line solves along x, y and z, but the factorised
// operators include a fourth-difference dissipation term, so each line
// solve is a pentadiagonal (5-band) system solved by scalar Gaussian
// elimination — the structural difference from BT's block-tridiagonal
// systems that NAS preserves between the two codes.
//
// The parallelisation mirrors NAS SP: compute_rhs, x_solve, y_solve and
// add parallelise over the outermost dimension k; z_solve sweeps along k
// and parallelises over j (the phase change used by record–replay).
// Verification uses a manufactured discrete steady state, exactly as in
// package bt.
package sp

import (
	"fmt"
	"math"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
)

// ncomp is the number of solution components.
const ncomp = 5

// SP is one problem instance bound to a machine.
type SP struct {
	m     *machine.Machine
	n     int
	iters int
	scale int
	dt    float64
	eps   float64 // dissipation weight (lambda4 = dt*eps)
	cm    [ncomp]float64

	u, rhs, forcing *machine.Array4
	target          []float64
	res0            float64
}

// New builds an SP instance. It satisfies nas.Builder.
func New(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
	n, iters := 10, 5
	switch class {
	case nas.ClassW:
		n, iters = 34, 30
	case nas.ClassA:
		n, iters = 64, 40
	}
	s := &SP{m: m, n: n, iters: iters, scale: scale, dt: 0.05, eps: 1.0}
	for c := 0; c < ncomp; c++ {
		s.cm[c] = 1 + 0.2*float64(c)
	}
	s.u = m.NewArray4("u", n, n, n, ncomp)
	s.rhs = m.NewArray4("rhs", n, n, n, ncomp)
	s.forcing = m.NewArray4("forcing", n, n, n, ncomp)
	s.buildProblem()
	s.Reinit()
	s.res0 = s.residualNorm()
	return s
}

// Name returns "SP".
func (s *SP) Name() string { return "SP" }

// DefaultIterations returns the class's step count.
func (s *SP) DefaultIterations() int { return s.iters }

// HasPhase reports that z_solve is a record–replay phase.
func (s *SP) HasPhase() bool { return true }

// HotPages returns the spans of u, rhs and forcing.
func (s *SP) HotPages() [][2]uint64 {
	out := make([][2]uint64, 0, 3)
	for _, a := range []*machine.Array4{s.u, s.rhs, s.forcing} {
		lo, hi := a.PageRange()
		out = append(out, [2]uint64{lo, hi})
	}
	return out
}

func (s *SP) idx(k, j, i, c int) int { return ((k*s.n+j)*s.n+i)*ncomp + c }

// at reads the manufactured target with zero extension outside the grid
// (the convention the dissipation stencil uses near boundaries).
func (s *SP) at(t []float64, k, j, i, c int) float64 {
	if k < 0 || j < 0 || i < 0 || k >= s.n || j >= s.n || i >= s.n {
		return 0
	}
	return t[s.idx(k, j, i, c)]
}

// spatialTarget applies the full discrete operator L = cm*Lap_h - eps*D4
// to the target field on the host; f = -L(target) makes the target the
// exact discrete steady state.
func (s *SP) buildProblem() {
	n := s.n
	h := 1.0 / float64(n-1)
	h2 := 1 / (h * h)
	sn := nas.SinAxis(n)
	s.target = make([]float64, n*n*n*ncomp)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				g := sn[k] * sn[j] * sn[i]
				for c := 0; c < ncomp; c++ {
					s.target[s.idx(k, j, i, c)] = (1 + 0.2*float64(c)) * g
				}
			}
		}
	}
	f := s.forcing.Data()
	t := s.target
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				for c := 0; c < ncomp; c++ {
					lap := (s.at(t, k+1, j, i, c) + s.at(t, k-1, j, i, c) +
						s.at(t, k, j+1, i, c) + s.at(t, k, j-1, i, c) +
						s.at(t, k, j, i+1, c) + s.at(t, k, j, i-1, c) -
						6*s.at(t, k, j, i, c)) * h2
					d4 := s.d4host(t, k, j, i, c)
					f[s.idx(k, j, i, c)] = -(s.cm[c]*lap - s.eps*d4)
				}
			}
		}
	}
}

// d4host evaluates the three-direction fourth difference with zero
// extension, scaled to be O(1) (the same scaling the line solves use).
func (s *SP) d4host(t []float64, k, j, i, c int) float64 {
	d := func(m2, m1, p1, p2, c0 float64) float64 { return m2 - 4*m1 + 6*c0 - 4*p1 + p2 }
	c0 := s.at(t, k, j, i, c)
	return d(s.at(t, k-2, j, i, c), s.at(t, k-1, j, i, c), s.at(t, k+1, j, i, c), s.at(t, k+2, j, i, c), c0) +
		d(s.at(t, k, j-2, i, c), s.at(t, k, j-1, i, c), s.at(t, k, j+1, i, c), s.at(t, k, j+2, i, c), c0) +
		d(s.at(t, k, j, i-2, c), s.at(t, k, j, i-1, c), s.at(t, k, j, i+1, c), s.at(t, k, j, i+2, c), c0)
}

// Reinit zeroes u and rhs.
func (s *SP) Reinit() {
	clear(s.u.Data())
	clear(s.rhs.Data())
}

// InitTouch writes the arrays with the compute phases' k partitioning,
// one contiguous (j,i,m) row at a time through the run APIs.
func (s *SP) InitTouch(t *omp.Team) {
	n := s.n
	f := s.forcing.Data()
	rowLen := n * ncomp
	t.ParallelNamed("init", func(tr *omp.Thread) {
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			lo, hi := from, to
			if lo == 1 {
				lo = 0
			}
			if hi == n-1 {
				hi = n
			}
			for k := lo; k < hi; k++ {
				for j := 0; j < n; j++ {
					base := s.u.Row(k, j)
					clear(s.u.MutRun(c, base, rowLen))
					clear(s.rhs.MutRun(c, base, rowLen))
					copy(s.forcing.MutRun(c, base, rowLen), f[base:base+rowLen])
				}
			}
		})
	})
}

// Step advances one timestep.
func (s *SP) Step(t *omp.Team, h *nas.Hooks) {
	for r := 0; r < s.scale; r++ {
		s.computeRHS(t)
	}
	for r := 0; r < s.scale; r++ {
		s.solveDir(t, 0) // x
	}
	for r := 0; r < s.scale; r++ {
		s.solveDir(t, 1) // y
	}
	h.PhaseEnter(t.Master())
	for r := 0; r < s.scale; r++ {
		s.solveDir(t, 2) // z: the phase change
	}
	h.PhaseExit(t.Master())
	for r := 0; r < s.scale; r++ {
		s.add(t)
	}
}

// computeRHS sets rhs = dt*(cm*Lap_h(u) - eps*D4(u) + f): a 13-point
// stencil, parallel over k. Each interior (k,j) row of (n-2)*ncomp
// elements is processed as one set of bulk runs carrying exactly the
// per-element reference counts of the scalar stencil: the +-1 neighbour
// rows are read twice (once by the Laplacian, once by the fourth
// difference), the +-2 rows once when in bounds — gated whole rows in k
// and j, shortened runs for the i-direction shifts — and the centre row
// once.
func (s *SP) computeRHS(t *omp.Team) {
	n := s.n
	h2 := float64(n-1) * float64(n-1)
	L := (n - 2) * ncomp
	u := s.u.Data()
	at := func(k, j, i, m int) float64 {
		if k < 0 || j < 0 || i < 0 || k >= n || j >= n || i >= n {
			return 0
		}
		return u[s.idx(k, j, i, m)]
	}
	t.ParallelNamed("compute_rhs", func(tr *omp.Thread) {
		buf := make([]float64, L)
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for k := from; k < to; k++ {
				for j := 1; j < n-1; j++ {
					base := s.idx(k, j, 1, 0)
					s.u.GetRun(c, base, L) // centre
					for _, kk := range []int{k - 1, k + 1} {
						s.u.GetRun(c, s.idx(kk, j, 1, 0), L) // Laplacian
						s.u.GetRun(c, s.idx(kk, j, 1, 0), L) // dissipation
					}
					for _, jj := range []int{j - 1, j + 1} {
						s.u.GetRun(c, s.idx(k, jj, 1, 0), L)
						s.u.GetRun(c, s.idx(k, jj, 1, 0), L)
					}
					s.u.GetRun(c, s.idx(k, j, 0, 0), L) // i-1 shift
					s.u.GetRun(c, s.idx(k, j, 0, 0), L)
					s.u.GetRun(c, s.idx(k, j, 2, 0), L) // i+1 shift
					s.u.GetRun(c, s.idx(k, j, 2, 0), L)
					if k-2 >= 0 {
						s.u.GetRun(c, s.idx(k-2, j, 1, 0), L)
					}
					if k+2 < n {
						s.u.GetRun(c, s.idx(k+2, j, 1, 0), L)
					}
					if j-2 >= 0 {
						s.u.GetRun(c, s.idx(k, j-2, 1, 0), L)
					}
					if j+2 < n {
						s.u.GetRun(c, s.idx(k, j+2, 1, 0), L)
					}
					// Elements with i>=2 read i-2, those with i<=n-3 read
					// i+2: two runs shorter by one grid point each.
					s.u.GetRun(c, s.idx(k, j, 0, 0), L-ncomp)
					s.u.GetRun(c, s.idx(k, j, 3, 0), L-ncomp)
					frc := s.forcing.GetRun(c, base, L)
					for i := 1; i < n-1; i++ {
						for m := 0; m < ncomp; m++ {
							c0 := at(k, j, i, m)
							lap := (at(k+1, j, i, m) + at(k-1, j, i, m) +
								at(k, j+1, i, m) + at(k, j-1, i, m) +
								at(k, j, i+1, m) + at(k, j, i-1, m) - 6*c0) * h2
							d4 := (at(k-2, j, i, m) - 4*at(k-1, j, i, m) + 6*c0 - 4*at(k+1, j, i, m) + at(k+2, j, i, m)) +
								(at(k, j-2, i, m) - 4*at(k, j-1, i, m) + 6*c0 - 4*at(k, j+1, i, m) + at(k, j+2, i, m)) +
								(at(k, j, i-2, m) - 4*at(k, j, i-1, m) + 6*c0 - 4*at(k, j, i+1, m) + at(k, j, i+2, m))
							p := (i-1)*ncomp + m
							buf[p] = s.dt * (s.cm[m]*lap - s.eps*d4 + frc[p])
						}
					}
					s.rhs.SetRun(c, base, buf)
					c.Flops(L * 30)
				}
			}
		})
	})
}

// solveLines runs the pentadiagonal elimination of one (outer,inner)
// grid line for all ncomp components at once, in place in rhs. The
// components of one grid point are contiguous, so every access becomes
// an ncomp-element run at base + p*stride; the per-point reference
// counts (one read per point in the forward sweep, one write in the
// back substitution) match the scalar solver exactly. Bands are
// constant per component: (e2, e1, d0, e1, e2) with zero Dirichlet
// extension beyond both ends.
func (s *SP) solveLines(c *machine.CPU, lam2 *[ncomp]float64, lam4 float64, length int, alpha, dd, ff []float64, base, stride int) {
	var e2, e1, d0 [ncomp]float64
	for m := 0; m < ncomp; m++ {
		e2[m] = lam4
		e1[m] = -lam2[m] - 4*lam4
		d0[m] = 1 + 2*lam2[m] + 6*lam4
	}
	// Forward elimination.
	row := s.rhs.GetRun(c, base, ncomp)
	for m := 0; m < ncomp; m++ {
		alpha[m] = d0[m]
		dd[m] = e1[m]
		ff[m] = row[m]
	}
	if length > 1 {
		row = s.rhs.GetRun(c, base+stride, ncomp)
		for m := 0; m < ncomp; m++ {
			m1 := e1[m] / alpha[m]
			alpha[ncomp+m] = d0[m] - m1*dd[m]
			dd[ncomp+m] = e1[m] - m1*e2[m]
			ff[ncomp+m] = row[m] - m1*ff[m]
		}
	}
	for p := 2; p < length; p++ {
		row = s.rhs.GetRun(c, base+p*stride, ncomp)
		for m := 0; m < ncomp; m++ {
			m2 := e2[m] / alpha[(p-2)*ncomp+m]
			b1 := e1[m] - m2*dd[(p-2)*ncomp+m]
			cc := d0[m] - m2*e2[m]
			fp := row[m] - m2*ff[(p-2)*ncomp+m]
			m1 := b1 / alpha[(p-1)*ncomp+m]
			alpha[p*ncomp+m] = cc - m1*dd[(p-1)*ncomp+m]
			dd[p*ncomp+m] = e1[m] - m1*e2[m]
			ff[p*ncomp+m] = fp - m1*ff[(p-1)*ncomp+m]
		}
	}
	// Back substitution.
	var xp1, xp2 [ncomp]float64
	for p := length - 1; p >= 0; p-- {
		w := s.rhs.MutRun(c, base+p*stride, ncomp)
		for m := 0; m < ncomp; m++ {
			x := (ff[p*ncomp+m] - dd[p*ncomp+m]*xp1[m] - e2[m]*xp2[m]) / alpha[p*ncomp+m]
			w[m] = x
			xp2[m], xp1[m] = xp1[m], x
		}
	}
	c.Flops(length * ncomp * 14)
}

// solveDir factors one direction: dir 0 = x (lines along i, parallel over
// k), 1 = y (lines along j, parallel over k), 2 = z (lines along k,
// parallel over j — the phase change).
func (s *SP) solveDir(t *omp.Team, dir int) {
	n := s.n
	h2 := float64(n-1) * float64(n-1)
	var lam2 [ncomp]float64
	for m := 0; m < ncomp; m++ {
		lam2[m] = s.dt * s.cm[m] * h2
	}
	lam4 := s.dt * s.eps
	t.ParallelNamed([...]string{"x_solve", "y_solve", "z_solve"}[dir], func(tr *omp.Thread) {
		alpha := make([]float64, n*ncomp)
		dd := make([]float64, n*ncomp)
		ff := make([]float64, n*ncomp)
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for outer := from; outer < to; outer++ {
				for inner := 1; inner < n-1; inner++ {
					var base, stride int
					switch dir {
					case 0:
						base, stride = s.rhs.Vec(outer, inner, 1), ncomp
					case 1:
						base, stride = s.rhs.Vec(outer, 1, inner), n*ncomp
					default:
						base, stride = s.rhs.Vec(1, outer, inner), n*n*ncomp
					}
					s.solveLines(c, &lam2, lam4, n-2, alpha, dd, ff, base, stride)
				}
			}
		})
	})
}

// add accumulates u += rhs, parallel over k, one interior row per run.
func (s *SP) add(t *omp.Team) {
	n := s.n
	L := (n - 2) * ncomp
	t.ParallelNamed("add", func(tr *omp.Thread) {
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for k := from; k < to; k++ {
				for j := 1; j < n-1; j++ {
					base := s.idx(k, j, 1, 0)
					r := s.rhs.GetRun(c, base, L)
					w := s.u.MutRun(c, base, L)
					for p, v := range r {
						w[p] += v
					}
					c.Flops(L)
				}
			}
		})
	})
}

// residualNorm evaluates ||cm*Lap_h(u) - eps*D4(u) + f|| on the host.
func (s *SP) residualNorm() float64 {
	n := s.n
	h2 := float64(n-1) * float64(n-1)
	u := s.u.Data()
	f := s.forcing.Data()
	var sum float64
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				for c := 0; c < ncomp; c++ {
					lap := (s.at(u, k+1, j, i, c) + s.at(u, k-1, j, i, c) +
						s.at(u, k, j+1, i, c) + s.at(u, k, j-1, i, c) +
						s.at(u, k, j, i+1, c) + s.at(u, k, j, i-1, c) -
						6*s.at(u, k, j, i, c)) * h2
					r := s.cm[c]*lap - s.eps*s.d4host(u, k, j, i, c) + f[s.idx(k, j, i, c)]
					sum += r * r
				}
			}
		}
	}
	return math.Sqrt(sum)
}

// errorNorm returns the L2 distance from the manufactured solution.
func (s *SP) errorNorm() float64 {
	var sum float64
	for i, v := range s.u.Data() {
		d := v - s.target[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Verify checks convergence toward the manufactured steady state.
func (s *SP) Verify() error {
	res := s.residualNorm()
	if res >= 0.5*s.res0 || math.IsNaN(res) {
		return fmt.Errorf("sp: residual %g did not decrease from %g", res, s.res0)
	}
	return nil
}

// ResidualNorm exposes the residual for tests.
func (s *SP) ResidualNorm() float64 { return s.residualNorm() }

// ErrorNorm exposes the error for tests.
func (s *SP) ErrorNorm() float64 { return s.errorNorm() }
