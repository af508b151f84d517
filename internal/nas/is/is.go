// Package is is an extension benchmark: NAS IS (integer sort), a parallel
// counting sort. Each iteration histograms the keys (thread-private bucket
// rows merged by a scan), then scatters every key to its ranked position.
// The scatter is the interesting memory pattern: writes land wherever the
// *values* send them, spraying stores across the whole output array
// regardless of which thread issues them — a write-side analogue of CG's
// gather and the most placement-hostile pattern in the suite.
package is

import (
	"fmt"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
)

// IS is one problem instance.
type IS struct {
	m       *machine.Machine
	n       int // keys
	buckets int
	iters   int
	scale   int
	seed    uint64

	keys    *machine.IntArray
	outKeys *machine.IntArray
	counts  *machine.Array // threads x buckets, thread-private rows
	offsets []int32        // host-side scatter offsets per (bucket, thread)

	initKeys []int32
	step     int
}

// New builds an IS instance. It satisfies nas.Builder.
func New(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
	n, buckets, iters := 1<<14, 256, 5
	switch class {
	case nas.ClassW:
		n, buckets, iters = 1<<17, 1024, 10
	case nas.ClassA:
		n, buckets, iters = 1<<23, 2048, 10
	}
	s := &IS{m: m, n: n, buckets: buckets, iters: iters, scale: scale, seed: seed}
	s.keys = m.NewIntArray("keys", n)
	s.outKeys = m.NewIntArray("outKeys", n)
	s.counts = m.NewArray("counts", m.NumCPUs()*buckets)
	s.offsets = make([]int32, buckets*m.NumCPUs())
	s.initKeys = make([]int32, n)
	g := seed*0x9e3779b97f4a7c15 + 3
	for i := range s.initKeys {
		g ^= g << 13
		g ^= g >> 7
		g ^= g << 17
		s.initKeys[i] = int32(g % uint64(buckets))
	}
	s.Reinit()
	return s
}

// Name returns "IS".
func (s *IS) Name() string { return "IS" }

// DefaultIterations returns the class's ranking iteration count (NAS
// IS performs 10).
func (s *IS) DefaultIterations() int { return s.iters }

// VariesByStep marks IS as nas.Varying: the keys each step perturbs, and the buckets the keys select, change every step.
func (s *IS) VariesByStep() {}

// HasPhase reports no record–replay phase: the scatter's destinations
// change with the data, so no per-phase plan is stable.
func (s *IS) HasPhase() bool { return false }

// HotPages returns the key, output and count arrays.
func (s *IS) HotPages() [][2]uint64 {
	var out [][2]uint64
	for _, r := range [][2]uint64{pr(s.keys.PageRange()), pr(s.outKeys.PageRange()), pr(s.counts.PageRange())} {
		out = append(out, r)
	}
	return out
}

func pr(lo, hi uint64) [2]uint64 { return [2]uint64{lo, hi} }

// Reinit restores the initial key array.
func (s *IS) Reinit() {
	copy(s.keys.Data(), s.initKeys)
	clear(s.outKeys.Data())
	clear(s.counts.Data())
	s.step = 0
}

// InitTouch writes all arrays with the counting phase's partitioning.
func (s *IS) InitTouch(t *omp.Team) {
	kd := s.keys.Data()
	t.Parallel(func(tr *omp.Thread) {
		tr.For(0, s.n, omp.Static(), func(c *machine.CPU, from, to int) {
			for i := from; i < to; i++ {
				s.keys.Set(c, i, kd[i])
				s.outKeys.Set(c, i, 0)
			}
		})
		tr.For(0, s.counts.Len(), omp.Static(), func(c *machine.CPU, from, to int) {
			for i := from; i < to; i++ {
				s.counts.Set(c, i, 0)
			}
		})
	})
}

// Step performs one ranking iteration: perturb two keys (NAS IS does this
// to make iterations distinct), histogram, scan, scatter.
func (s *IS) Step(t *omp.Team, h *nas.Hooks) {
	for r := 0; r < s.scale; r++ {
		s.step++
		s.perturb(t)
		s.histogram(t)
		s.scan(t)
		s.scatter(t)
	}
}

// perturb modifies two keys deterministically per iteration (the NAS IS
// idiom), performed by the master.
func (s *IS) perturb(t *omp.Team) {
	c := t.Master()
	i1 := (s.step * 2521) % s.n
	i2 := (s.step*9241 + 17) % s.n
	s.keys.Set(c, i1, int32((s.step*31)%s.buckets))
	s.keys.Set(c, i2, int32((s.step*67+5)%s.buckets))
}

// histogram counts each thread's key chunk into its private bucket row.
func (s *IS) histogram(t *omp.Team) {
	b := s.buckets
	t.Parallel(func(tr *omp.Thread) {
		row := tr.ID * b
		// Clear own row.
		for q := 0; q < b; q++ {
			s.counts.Set(tr.CPU, row+q, 0)
		}
		tr.Barrier()
		tr.For(0, s.n, omp.Static(), func(c *machine.CPU, from, to int) {
			for i := from; i < to; i++ {
				k := int(s.keys.Get(c, i))
				s.counts.Add(c, row+k, 1)
				c.Flops(2)
			}
		})
	})
}

// scan computes, on the master, the global start offset of every
// (bucket, thread) segment: a prefix sum over buckets and thread rows
// (small: buckets x threads values).
func (s *IS) scan(t *omp.Team) {
	c := t.Master()
	b := s.buckets
	nt := t.Size()
	pos := int32(0)
	for q := 0; q < b; q++ {
		for id := 0; id < nt; id++ {
			s.offsets[q*nt+id] = pos
			pos += int32(s.counts.Get(c, id*b+q))
			c.Flops(2)
		}
	}
}

// scatter writes each key to its ranked slot. Thread t's keys of bucket q
// go to the contiguous segment offsets[q][t], so threads never collide,
// but the *pages* they write belong to whoever the key values dictate —
// the all-to-all write pattern.
func (s *IS) scatter(t *omp.Team) {
	b := s.buckets
	nt := t.Size()
	t.Parallel(func(tr *omp.Thread) {
		next := make([]int32, b)
		base := tr.ID
		for q := 0; q < b; q++ {
			next[q] = s.offsets[q*nt+base]
		}
		tr.For(0, s.n, omp.Static(), func(c *machine.CPU, from, to int) {
			for i := from; i < to; i++ {
				k := s.keys.Get(c, i)
				s.outKeys.Set(c, int(next[k]), k)
				next[k]++
				c.Flops(2)
			}
		})
	})
}

// Verify checks that outKeys is the sorted permutation of keys.
func (s *IS) Verify() error {
	out := s.outKeys.Data()
	prev := int32(-1)
	for i, v := range out {
		if v < prev {
			return fmt.Errorf("is: outKeys[%d] = %d < previous %d (not sorted)", i, v, prev)
		}
		prev = v
	}
	hist := make([]int64, s.buckets)
	for _, v := range s.keys.Data() {
		hist[v]++
	}
	for _, v := range out {
		hist[v]--
	}
	for q, h := range hist {
		if h != 0 {
			return fmt.Errorf("is: bucket %d imbalance %d (not a permutation)", q, h)
		}
	}
	return nil
}
