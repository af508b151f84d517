// Package bt reproduces the memory behaviour of NAS BT: an iterative ADI
// (alternating direction implicit) solver on a 3-D grid with a 5-component
// solution vector. Each timestep computes a right-hand side from a 7-point
// stencil (compute_rhs), performs implicit line solves along x, y and z
// (x_solve, y_solve, z_solve), and accumulates the update (add). As in the
// NAS OpenMP code, compute_rhs, x_solve, y_solve and add parallelise over
// the outermost grid dimension k, while z_solve sweeps along k and must
// parallelise over j — the phase change the paper's record–replay
// mechanism targets.
//
// Simplification vs NAS BT: the real code solves 5x5 block-tridiagonal
// systems from the compressible Navier-Stokes equations; here the five
// components are coupled diffusion equations solved with per-component
// Thomas recurrences, with the block-solve arithmetic charged as extra
// flops. Memory access patterns — the arrays (u, rhs, forcing), the sweep
// directions, the parallelisation axes — follow the original, which is
// what the paper's experiments exercise. The solver is numerically real: a
// manufactured discrete solution lets Verify check convergence.
package bt

import (
	"fmt"
	"math"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
)

// ncomp is the number of solution components (NAS BT's 5).
const ncomp = 5

// blockFlops is the extra arithmetic per element-component charged for the
// 5x5 block solves the real BT performs where we run scalar recurrences.
const blockFlops = 20

// BT is one problem instance bound to a machine.
type BT struct {
	m     *machine.Machine
	n     int // grid points per dimension (including boundary)
	iters int
	scale int
	dt    float64
	cm    [ncomp]float64 // per-component diffusion coefficients

	u, rhs, forcing *machine.Array4
	target          []float64 // manufactured discrete solution
	res0            float64   // initial residual norm

	// Per-thread host scratch, reused across parallel regions so the hot
	// loop allocates nothing. Indexed by thread ID; each thread touches
	// only its own slot.
	scratch [][]float64
}

// threadScratch returns thread id's reusable scratch of at least n
// floats.
func (b *BT) threadScratch(id, n int) []float64 {
	if len(b.scratch[id]) < n {
		b.scratch[id] = make([]float64, n)
	}
	return b.scratch[id][:n]
}

// New builds a BT instance. It satisfies nas.Builder.
func New(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
	// 15 steps at Class S: enough main-loop time for the interrupt-driven
	// kernel engine's one-time migration burst to amortise, mirroring the
	// proportions of the paper's full-length runs.
	n, iters := 10, 15
	switch class {
	case nas.ClassW:
		n, iters = 34, 30
	case nas.ClassA:
		n, iters = 64, 40
	}
	// dt trades splitting error against smooth-mode damping; 0.05 damps
	// the dominant error mode by ~0.55 per step on these grids.
	b := &BT{m: m, n: n, iters: iters, scale: scale, dt: 0.05}
	b.scratch = make([][]float64, m.NumCPUs())
	for c := 0; c < ncomp; c++ {
		b.cm[c] = 1 + 0.25*float64(c)
	}
	b.u = m.NewArray4("u", n, n, n, ncomp)
	b.rhs = m.NewArray4("rhs", n, n, n, ncomp)
	b.forcing = m.NewArray4("forcing", n, n, n, ncomp)
	b.buildProblem()
	b.Reinit()
	b.res0 = b.residualNorm()
	return b
}

// Name returns "BT".
func (b *BT) Name() string { return "BT" }

// DefaultIterations returns the class's step count.
func (b *BT) DefaultIterations() int { return b.iters }

// HasPhase reports that z_solve is a record–replay phase.
func (b *BT) HasPhase() bool { return true }

// HotPages returns the spans of u, rhs and forcing — the arrays the
// paper's compiler instrumentation identifies (Figure 2).
func (b *BT) HotPages() [][2]uint64 {
	out := make([][2]uint64, 0, 3)
	for _, a := range []*machine.Array4{b.u, b.rhs, b.forcing} {
		lo, hi := a.PageRange()
		out = append(out, [2]uint64{lo, hi})
	}
	return out
}

// idx flattens (k,j,i,c) in the [k][j][i][c] layout.
func (b *BT) idx(k, j, i, c int) int { return ((k*b.n+j)*b.n+i)*ncomp + c }

// buildProblem fills the manufactured target g_c = (1+c/4)·sin(πx)sin(πy)
// sin(πz) and the forcing f = -cm·Lap_h(g) so that g is the exact discrete
// steady state. Host-side initialisation does not touch simulated memory.
func (b *BT) buildProblem() {
	n := b.n
	h := 1.0 / float64(n-1)
	sn := nas.SinAxis(n)
	b.target = make([]float64, n*n*n*ncomp)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				g := sn[k] * sn[j] * sn[i]
				for c := 0; c < ncomp; c++ {
					b.target[b.idx(k, j, i, c)] = (1 + 0.25*float64(c)) * g
				}
			}
		}
	}
	f := b.forcing.Data()
	lap := func(k, j, i, c int) float64 {
		t := b.target
		return (t[b.idx(k+1, j, i, c)] + t[b.idx(k-1, j, i, c)] +
			t[b.idx(k, j+1, i, c)] + t[b.idx(k, j-1, i, c)] +
			t[b.idx(k, j, i+1, c)] + t[b.idx(k, j, i-1, c)] -
			6*t[b.idx(k, j, i, c)]) / (h * h)
	}
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				for c := 0; c < ncomp; c++ {
					f[b.idx(k, j, i, c)] = -b.cm[c] * lap(k, j, i, c)
				}
			}
		}
	}
}

// Reinit zeroes u and rhs (u carries the boundary values of the target,
// which are zero for the manufactured solution).
func (b *BT) Reinit() {
	clear(b.u.Data())
	clear(b.rhs.Data())
}

// InitTouch writes u, rhs and forcing in parallel with the same k-plane
// partitioning as the compute phases (the NAS initialize routine), so
// first-touch homes each plane's pages on its dominant accessor. Threads
// owning the first and last interior planes also touch the boundary
// planes.
func (b *BT) InitTouch(t *omp.Team) {
	n := b.n
	f := b.forcing.Data()
	t.ParallelNamed("init", func(tr *omp.Thread) {
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			lo, hi := from, to
			if lo == 1 {
				lo = 0
			}
			if hi == n-1 {
				hi = n
			}
			rowLen := n * ncomp
			for k := lo; k < hi; k++ {
				for j := 0; j < n; j++ {
					base := b.u.Row(k, j) // == b.idx(k, j, 0, 0)
					uw := b.u.MutRun(c, base, rowLen)
					clear(uw)
					rw := b.rhs.MutRun(c, base, rowLen)
					clear(rw)
					fw := b.forcing.MutRun(c, base, rowLen)
					copy(fw, f[base:base+rowLen]) // values already in place
				}
			}
		})
	})
}

// Step advances one timestep (the body of the paper's Figure 2 loop).
func (b *BT) Step(t *omp.Team, h *nas.Hooks) {
	for s := 0; s < b.scale; s++ {
		b.computeRHS(t)
	}
	for s := 0; s < b.scale; s++ {
		b.xSolve(t)
	}
	for s := 0; s < b.scale; s++ {
		b.ySolve(t)
	}
	h.PhaseEnter(t.Master())
	for s := 0; s < b.scale; s++ {
		b.zSolve(t)
	}
	h.PhaseExit(t.Master())
	for s := 0; s < b.scale; s++ {
		b.add(t)
	}
}

// computeRHS sets rhs = dt*(cm*Lap_h(u) + forcing), parallel over k. Each
// interior (k,j) row is one contiguous run of (n-2)*ncomp elements, so the
// seven stencil reads, the forcing read and the rhs write charge the same
// per-element events as the scalar loop while walking the memory system
// once per cache line.
func (b *BT) computeRHS(t *omp.Team) {
	n := b.n
	h2 := float64(n-1) * float64(n-1)
	L := (n - 2) * ncomp
	t.ParallelNamed("compute_rhs", func(tr *omp.Thread) {
		buf := b.threadScratch(tr.ID, L)
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for k := from; k < to; k++ {
				for j := 1; j < n-1; j++ {
					base := b.idx(k, j, 1, 0)
					up := b.u.GetRun(c, b.idx(k+1, j, 1, 0), L)
					dn := b.u.GetRun(c, b.idx(k-1, j, 1, 0), L)
					no := b.u.GetRun(c, b.idx(k, j+1, 1, 0), L)
					so := b.u.GetRun(c, b.idx(k, j-1, 1, 0), L)
					ea := b.u.GetRun(c, b.idx(k, j, 2, 0), L)
					we := b.u.GetRun(c, b.idx(k, j, 0, 0), L)
					ce := b.u.GetRun(c, base, L)
					fo := b.forcing.GetRun(c, base, L)
					x := 0
					for i := 1; i < n-1; i++ {
						for m := 0; m < ncomp; m++ {
							lap := (up[x] + dn[x] + no[x] + so[x] + ea[x] + we[x] - 6*ce[x]) * h2
							buf[x] = b.dt * (b.cm[m]*lap + fo[x])
							x++
						}
					}
					b.rhs.SetRun(c, base, buf)
					c.Flops(L * (12 + blockFlops/2))
				}
			}
		})
	})
}

// lambdas returns the per-component implicit coefficients dt*cm*h2.
func (b *BT) lambdas() [ncomp]float64 {
	h2 := float64(b.n-1) * float64(b.n-1)
	var lam [ncomp]float64
	for m := 0; m < ncomp; m++ {
		lam[m] = b.dt * b.cm[m] * h2
	}
	return lam
}

// solveSweep runs the Thomas recurrences of width independent component
// systems in lockstep: sweep step p touches the contiguous width-element
// row at base+p*stepStride. The y and z solvers pass whole interior
// i-rows (the NAS line solvers vectorise over the dimension orthogonal to
// the sweep), so every simulated charge is one long run; the x solver's
// rows are mutually adjacent (stepStride == width) and collapse further
// into three whole-line block charges via solveBlock. Element q of a row
// belongs to component q%ncomp, whose coefficients are constant:
// (-lam, 1+2lam, -lam), zero Dirichlet ends. Per element the reference
// multiset of the scalar recurrence is kept intact: forward elimination
// reads each row once, back substitution re-reads the just-written rows
// 1..steps-1 and writes every row once.
func (b *BT) solveSweep(c *machine.CPU, lam *[ncomp]float64, steps, width int, cp, dp []float64, base, stepStride int) {
	if stepStride == width {
		b.solveBlock(c, lam, steps, width, cp, dp, base)
		return
	}
	// Forward elimination.
	row := b.rhs.GetRun(c, base, width)
	for o := 0; o < width; o += ncomp {
		for m := 0; m < ncomp; m++ {
			cp[o+m] = -lam[m] / (1 + 2*lam[m])
			dp[o+m] = row[o+m] / (1 + 2*lam[m])
		}
	}
	for p := 1; p < steps; p++ {
		row = b.rhs.GetRun(c, base+p*stepStride, width)
		prev, cur := (p-1)*width, p*width
		for o := 0; o < width; o += ncomp {
			for m := 0; m < ncomp; m++ {
				den := 1 + 2*lam[m] + lam[m]*cp[prev+o+m]
				cp[cur+o+m] = -lam[m] / den
				dp[cur+o+m] = (row[o+m] + lam[m]*dp[prev+o+m]) / den
			}
		}
	}
	// Back substitution.
	w := b.rhs.MutRun(c, base+(steps-1)*stepStride, width)
	copy(w, dp[(steps-1)*width:steps*width])
	for p := steps - 2; p >= 0; p-- {
		next := b.rhs.GetRun(c, base+(p+1)*stepStride, width)
		w = b.rhs.MutRun(c, base+p*stepStride, width)
		cur := p * width
		for q := 0; q < width; q++ {
			w[q] = dp[cur+q] - cp[cur+q]*next[q]
		}
	}
	c.Flops(steps * width * (8 + blockFlops))
}

// solveBlock is solveSweep for adjacent rows (stepStride == width): the
// sweep's rows form one contiguous block, so the forward reads, the back
// substitution's re-reads of rows 1..steps-1 and the writes of every row
// are charged as three block runs — the same per-element multiset as the
// stepped form.
func (b *BT) solveBlock(c *machine.CPU, lam *[ncomp]float64, steps, width int, cp, dp []float64, base int) {
	n := steps * width
	row := b.rhs.GetRun(c, base, n)
	for o := 0; o < width; o += ncomp {
		for m := 0; m < ncomp; m++ {
			cp[o+m] = -lam[m] / (1 + 2*lam[m])
			dp[o+m] = row[o+m] / (1 + 2*lam[m])
		}
	}
	for p := 1; p < steps; p++ {
		prev, cur := (p-1)*width, p*width
		for o := 0; o < width; o += ncomp {
			for m := 0; m < ncomp; m++ {
				den := 1 + 2*lam[m] + lam[m]*cp[prev+o+m]
				cp[cur+o+m] = -lam[m] / den
				dp[cur+o+m] = (row[cur+o+m] + lam[m]*dp[prev+o+m]) / den
			}
		}
	}
	b.rhs.GetRun(c, base+width, n-width)
	w := b.rhs.MutRun(c, base, n)
	copy(w[(steps-1)*width:n], dp[(steps-1)*width:n])
	for p := steps - 2; p >= 0; p-- {
		cur := p * width
		nxt := cur + width
		for q := 0; q < width; q++ {
			w[cur+q] = dp[cur+q] - cp[cur+q]*w[nxt+q]
		}
	}
	c.Flops(steps * width * (8 + blockFlops))
}

// xSolve solves the implicit x-direction systems, parallel over k. The
// sweep runs along the contiguous dimension, so each (k,j) line is one
// contiguous block (solveBlock).
func (b *BT) xSolve(t *omp.Team) {
	n := b.n
	lam := b.lambdas()
	t.ParallelNamed("x_solve", func(tr *omp.Thread) {
		s := b.threadScratch(tr.ID, 2*n*n*ncomp)
		cp, dp := s[:n*n*ncomp], s[n*n*ncomp:]
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for k := from; k < to; k++ {
				for j := 1; j < n-1; j++ {
					b.solveSweep(c, &lam, n-2, ncomp, cp, dp, b.idx(k, j, 1, 0), ncomp)
				}
			}
		})
	})
}

// ySolve solves along y, parallel over k, vectorised over i: each sweep
// step charges one whole interior i-row.
func (b *BT) ySolve(t *omp.Team) {
	n := b.n
	lam := b.lambdas()
	t.ParallelNamed("y_solve", func(tr *omp.Thread) {
		s := b.threadScratch(tr.ID, 2*n*n*ncomp)
		cp, dp := s[:n*n*ncomp], s[n*n*ncomp:]
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for k := from; k < to; k++ {
				b.solveSweep(c, &lam, n-2, (n-2)*ncomp, cp, dp, b.idx(k, 1, 1, 0), n*ncomp)
			}
		})
	})
}

// zSolve solves along z, vectorised over i. The sweep direction is k, so
// the loop parallelises over j: every thread walks the full k extent of
// the grid — the phase change in the memory reference pattern.
func (b *BT) zSolve(t *omp.Team) {
	n := b.n
	lam := b.lambdas()
	t.ParallelNamed("z_solve", func(tr *omp.Thread) {
		s := b.threadScratch(tr.ID, 2*n*n*ncomp)
		cp, dp := s[:n*n*ncomp], s[n*n*ncomp:]
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for j := from; j < to; j++ {
				b.solveSweep(c, &lam, n-2, (n-2)*ncomp, cp, dp, b.idx(1, j, 1, 0), n*n*ncomp)
			}
		})
	})
}

// add accumulates u += rhs, parallel over k, one contiguous row run per
// interior (k,j).
func (b *BT) add(t *omp.Team) {
	n := b.n
	L := (n - 2) * ncomp
	t.ParallelNamed("add", func(tr *omp.Thread) {
		tr.For(1, n-1, omp.Static(), func(c *machine.CPU, from, to int) {
			for k := from; k < to; k++ {
				for j := 1; j < n-1; j++ {
					base := b.idx(k, j, 1, 0)
					rr := b.rhs.GetRun(c, base, L)
					uw := b.u.MutRun(c, base, L)
					for x := 0; x < L; x++ {
						uw[x] += rr[x]
					}
					c.Flops(L)
				}
			}
		})
	})
}

// residualNorm computes ||cm*Lap_h(u)+f||_2 over the interior on the host
// (no simulated cost).
func (b *BT) residualNorm() float64 {
	n := b.n
	h2 := float64(n-1) * float64(n-1)
	u := b.u.Data()
	f := b.forcing.Data()
	var s float64
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				for c := 0; c < ncomp; c++ {
					lap := (u[b.idx(k+1, j, i, c)] + u[b.idx(k-1, j, i, c)] +
						u[b.idx(k, j+1, i, c)] + u[b.idx(k, j-1, i, c)] +
						u[b.idx(k, j, i+1, c)] + u[b.idx(k, j, i-1, c)] -
						6*u[b.idx(k, j, i, c)]) * h2
					r := b.cm[c]*lap + f[b.idx(k, j, i, c)]
					s += r * r
				}
			}
		}
	}
	return math.Sqrt(s)
}

// errorNorm returns the L2 distance of u from the manufactured solution.
func (b *BT) errorNorm() float64 {
	u := b.u.Data()
	var s float64
	for i, v := range u {
		d := v - b.target[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Verify checks that the ADI iteration actually converged toward the
// manufactured steady state: the residual must have dropped clearly below
// its initial value.
func (b *BT) Verify() error {
	res := b.residualNorm()
	if res >= 0.5*b.res0 || math.IsNaN(res) {
		return fmt.Errorf("bt: residual %g did not decrease from %g", res, b.res0)
	}
	return nil
}

// ResidualNorm exposes the residual for tests.
func (b *BT) ResidualNorm() float64 { return b.residualNorm() }

// ErrorNorm exposes the error for tests.
func (b *BT) ErrorNorm() float64 { return b.errorNorm() }
