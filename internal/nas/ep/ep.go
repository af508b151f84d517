// Package ep is an extension benchmark: NAS EP (embarrassingly parallel),
// the control case for the placement experiments. EP generates pairs of
// uniform deviates, applies the Box–Muller acceptance test and tallies the
// Gaussian deviates into ten concentric annuli. Apart from the final
// reduction it touches no shared data, so *no* page placement scheme can
// hurt it — the paper's argument is about codes with shared-memory
// locality, and EP shows the experiments measure exactly that and not some
// simulator artefact.
package ep

import (
	"fmt"
	"math"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
)

// EP is one problem instance.
type EP struct {
	m     *machine.Machine
	pairs int // random pairs per iteration
	iters int
	scale int
	seed  uint64

	// Shared result table: one row of annulus counts per thread, plus
	// the global sums (written once per iteration in a reduction-style
	// region). Tiny, but it is the only shared data, matching NAS EP.
	counts *machine.Array // threads x 10

	sumX, sumY float64
	accepted   int64
	steps      int // step() calls since Reinit (Verify replays them)
}

// New builds an EP instance. It satisfies nas.Builder.
func New(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
	pairs, iters := 1<<12, 4
	switch class {
	case nas.ClassW:
		pairs, iters = 1<<15, 6
	case nas.ClassA:
		pairs, iters = 1<<20, 6
	}
	e := &EP{m: m, pairs: pairs, iters: iters, scale: scale, seed: seed}
	e.counts = m.NewArray("counts", m.NumCPUs()*10)
	e.Reinit()
	return e
}

// Name returns "EP".
func (e *EP) Name() string { return "EP" }

// DefaultIterations returns the class's iteration count.
func (e *EP) DefaultIterations() int { return e.iters }

// VariesByStep marks EP as nas.Varying: the accepted pairs, and the flops they charge, follow the random stream.
func (e *EP) VariesByStep() {}

// HasPhase reports no phase change.
func (e *EP) HasPhase() bool { return false }

// HotPages returns the single shared table.
func (e *EP) HotPages() [][2]uint64 {
	lo, hi := e.counts.PageRange()
	return [][2]uint64{{lo, hi}}
}

// Reinit clears the tallies.
func (e *EP) Reinit() {
	clear(e.counts.Data())
	e.sumX, e.sumY, e.accepted, e.steps = 0, 0, 0, 0
}

// InitTouch writes each thread's count row.
func (e *EP) InitTouch(t *omp.Team) {
	t.Parallel(func(tr *omp.Thread) {
		for q := 0; q < 10; q++ {
			e.counts.Set(tr.CPU, tr.ID*10+q, 0)
		}
	})
}

// lcg is NAS EP's multiplicative congruential generator (mod 2^46).
type lcg struct{ s uint64 }

const (
	lcgMult = 0x5DEECE66D        // a well-tested 2^46 MLCG multiplier
	lcgMask = (1 << 46) - 1      // modulus 2^46
	lcgNorm = 1.0 / (1 << 46)    // to (0,1)
	lcgSkip = 0x2545F4914F6CDD1D // stream-splitting stride
)

func (g *lcg) next() float64 {
	g.s = (g.s*lcgMult + 0xB) & lcgMask
	return float64(g.s) * lcgNorm
}

// Step generates pairs, tallies the accepted Gaussian deviates by annulus
// into the thread's own row of the shared table, and reduces the sums.
func (e *EP) Step(t *omp.Team, h *nas.Hooks) {
	for s := 0; s < e.scale; s++ {
		e.step(t)
	}
}

func (e *EP) step(t *omp.Team) {
	e.steps++
	iter := e.accepted // only used to vary the stream per iteration
	var totX, totY float64
	var acc int64
	t.Parallel(func(tr *omp.Thread) {
		c := tr.CPU
		g := lcg{s: (e.seed + uint64(tr.ID)*lcgSkip + uint64(iter)) & lcgMask}
		var sx, sy float64
		var myAcc int64
		n := e.pairs / t.Size()
		for i := 0; i < n; i++ {
			x := 2*g.next() - 1
			y := 2*g.next() - 1
			tsq := x*x + y*y
			c.Flops(8)
			if tsq > 1 || tsq == 0 {
				continue
			}
			f := math.Sqrt(-2 * math.Log(tsq) / tsq)
			gx, gy := f*x, f*y
			sx += gx
			sy += gy
			myAcc++
			q := int(math.Max(math.Abs(gx), math.Abs(gy)))
			if q > 9 {
				q = 9
			}
			e.counts.Add(c, tr.ID*10+q, 1)
			c.Flops(12)
		}
		sx = tr.ReduceSum(sx)
		sy = tr.ReduceSum(sy)
		myAcc = int64(tr.ReduceSum(float64(myAcc)))
		if tr.ID == 0 {
			totX, totY, acc = sx, sy, myAcc
		}
		tr.Barrier()
	})
	e.sumX += totX
	e.sumY += totY
	e.accepted += acc
}

// Verify recomputes the tallies on the host with the same generator and
// checks the sums and the annulus table.
func (e *EP) Verify() error {
	var refX, refY float64
	var refAcc int64
	refCounts := make([]float64, 10)
	var iterBase int64
	for it := 0; it < e.steps; it++ {
		iterAcc := int64(0)
		for id := 0; id < e.m.NumCPUs(); id++ {
			g := lcg{s: (e.seed + uint64(id)*lcgSkip + uint64(iterBase)) & lcgMask}
			n := e.pairs / e.m.NumCPUs()
			for i := 0; i < n; i++ {
				x := 2*g.next() - 1
				y := 2*g.next() - 1
				tsq := x*x + y*y
				if tsq > 1 || tsq == 0 {
					continue
				}
				f := math.Sqrt(-2 * math.Log(tsq) / tsq)
				gx, gy := f*x, f*y
				refX += gx
				refY += gy
				refAcc++
				iterAcc++
				q := int(math.Max(math.Abs(gx), math.Abs(gy)))
				if q > 9 {
					q = 9
				}
				refCounts[q]++
			}
		}
		iterBase += iterAcc
	}
	if refAcc != e.accepted {
		return fmt.Errorf("ep: accepted %d pairs, reference %d", e.accepted, refAcc)
	}
	if math.Abs(refX-e.sumX) > 1e-9*math.Abs(refX)+1e-12 ||
		math.Abs(refY-e.sumY) > 1e-9*math.Abs(refY)+1e-12 {
		return fmt.Errorf("ep: sums (%g,%g) differ from reference (%g,%g)", e.sumX, e.sumY, refX, refY)
	}
	data := e.counts.Data()
	for q := 0; q < 10; q++ {
		var got float64
		for id := 0; id < e.m.NumCPUs(); id++ {
			got += data[id*10+q]
		}
		if got != refCounts[q] {
			return fmt.Errorf("ep: annulus %d count %g, reference %g", q, got, refCounts[q])
		}
	}
	return nil
}

// Accepted returns the number of accepted pairs so far (for tests).
func (e *EP) Accepted() int64 { return e.accepted }
