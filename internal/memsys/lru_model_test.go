package memsys

import (
	"math/rand"
	"testing"
)

// lruModel is the timestamp-LRU cache that Cache replaced: every way
// carries the tick of its last access, and a miss evicts the way with the
// smallest stamp (the first one on a tie, so invalid ways fill first). It
// is kept only as the reference that recency-ordered ways must match.
type lruModel struct {
	lineShift    uint
	setMask      uint64
	ways         int
	tags         []uint64
	vers         []uint32
	age          []uint64
	tick         uint64
	hits, misses uint64
}

func newLRUModel(sizeBytes, lineBytes, ways int) *lruModel {
	sets := sizeBytes / (lineBytes * ways)
	m := &lruModel{ways: ways, setMask: uint64(sets - 1),
		tags: make([]uint64, sets*ways), vers: make([]uint32, sets*ways), age: make([]uint64, sets*ways)}
	for lineBytes > 1 {
		lineBytes >>= 1
		m.lineShift++
	}
	return m
}

// accessRange is the reference for AccessRange (and, with n = 1, Access).
func (m *lruModel) accessRange(addr uint64, n int, ver, newVer uint32) bool {
	if n <= 0 {
		return true
	}
	line := addr >> m.lineShift
	set := int(line&m.setMask) * m.ways
	tag := line + 1
	m.tick += uint64(n)
	for w := 0; w < m.ways; w++ {
		if m.tags[set+w] == tag {
			m.age[set+w] = m.tick
			hit := m.vers[set+w] == ver
			m.vers[set+w] = newVer
			if !hit {
				m.misses++
				m.hits += uint64(n - 1)
				return false
			}
			m.hits += uint64(n)
			return true
		}
	}
	m.misses++
	m.hits += uint64(n - 1)
	victim := set
	for w := 1; w < m.ways; w++ {
		if m.age[set+w] < m.age[victim] {
			victim = set + w
		}
	}
	m.tags[victim], m.vers[victim], m.age[victim] = tag, newVer, m.tick
	return false
}

// accessLines is the reference for AccessLines: successive per-line
// accessRange calls, the first validating against ver and the rest
// against newVer.
func (m *lruModel) accessLines(addr uint64, nLines, firstCount, perLine, lastCount int, ver, newVer uint32) (misses int, missAddr uint64, missVer uint32) {
	line, v := addr>>m.lineShift, ver
	for i := 0; i < nLines; i++ {
		n := perLine
		if i == 0 {
			n = firstCount
		} else if i == nLines-1 {
			n = lastCount
		}
		if !m.accessRange(line<<m.lineShift, n, v, newVer) {
			if misses == 0 {
				missAddr, missVer = line<<m.lineShift, v
			}
			misses++
		}
		v = newVer
		line++
	}
	return misses, missAddr, missVer
}

func (m *lruModel) contains(addr uint64) bool {
	line := addr >> m.lineShift
	set := int(line&m.setMask) * m.ways
	for w := 0; w < m.ways; w++ {
		if m.tags[set+w] == line+1 {
			return true
		}
	}
	return false
}

func (m *lruModel) flush() {
	clear(m.tags)
	clear(m.age)
}

func (m *lruModel) fastForward(dHits, dMisses, dTick uint64, k int64) {
	m.hits += dHits * uint64(k)
	m.misses += dMisses * uint64(k)
	m.tick += dTick * uint64(k)
}

func (m *lruModel) clone() *lruModel {
	k := *m
	k.tags = append([]uint64(nil), m.tags...)
	k.vers = append([]uint32(nil), m.vers...)
	k.age = append([]uint64(nil), m.age...)
	return &k
}

// TestCacheMatchesTimestampLRU drives Cache and the timestamp-LRU model
// with one seeded random stream of Access, AccessRange and AccessLines
// (counts ≥ 1, current and stale versions), Flush, FastForward and Clone,
// and after every operation compares the return values, Stats, Tick and
// residency of every line the stream can touch. The span of addresses is
// a few times the cache, so sets see hits, stale refills and evictions.
// Every benchmark machine is 2-way, so this is the only coverage of the
// general probe.
func TestCacheMatchesTimestampLRU(t *testing.T) {
	const line, sets, ops = 32, 8, 6000
	for _, ways := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(100 + ways)))
		size := sets * ways * line
		span := uint64(3 * sets * ways) // lines the stream touches
		c, m := MustCache(size, line, ways), newLRUModel(size, line, ways)
		type pair struct {
			c *Cache
			m *lruModel
		}
		var frozen []pair // originals left behind by Clone; must not move
		check := func(op int, what string, c *Cache, m *lruModel) {
			t.Helper()
			ch, cm := c.Stats()
			if ch != m.hits || cm != m.misses || c.Tick() != m.tick {
				t.Fatalf("ways=%d op %d (%s): stats %d/%d tick %d, model %d/%d tick %d",
					ways, op, what, ch, cm, c.Tick(), m.hits, m.misses, m.tick)
			}
			for l := uint64(0); l < span; l++ {
				if got, want := c.Contains(l*line), m.contains(l*line); got != want {
					t.Fatalf("ways=%d op %d (%s): Contains(line %d) = %v, model %v", ways, op, what, l, got, want)
				}
			}
		}
		// run drives one pair through count random operations. A Clone op
		// sets the original aside and carries on with the copies.
		run := func(c *Cache, m *lruModel, count int) (*Cache, *lruModel) {
			for op := 0; op < count; op++ {
				addr := uint64(rng.Int63n(int64(span)))*line + uint64(rng.Intn(line))
				ver := uint32(rng.Intn(3))
				newVer := ver + uint32(rng.Intn(2))
				var what string
				switch r := rng.Intn(100); {
				case r < 30:
					what = "Access"
					if got, want := c.Access(addr, ver, newVer), m.accessRange(addr, 1, ver, newVer); got != want {
						t.Fatalf("ways=%d op %d: Access = %v, model %v", ways, op, got, want)
					}
				case r < 60:
					what = "AccessRange"
					n := 1 + rng.Intn(6)
					if got, want := c.AccessRange(addr, n, ver, newVer), m.accessRange(addr, n, ver, newVer); got != want {
						t.Fatalf("ways=%d op %d: AccessRange(n=%d) = %v, model %v", ways, op, n, got, want)
					}
				case r < 94:
					what = "AccessLines"
					nLines, first, per, last := 1+rng.Intn(2*ways+2), 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
					gm, ga, gv := c.AccessLines(addr, nLines, first, per, last, ver, newVer)
					wm, wa, wv := m.accessLines(addr, nLines, first, per, last, ver, newVer)
					if gm != wm || ga != wa || gv != wv {
						t.Fatalf("ways=%d op %d: AccessLines = (%d,%#x,%d), model (%d,%#x,%d)", ways, op, gm, ga, gv, wm, wa, wv)
					}
				case r < 96:
					what = "Flush"
					c.Flush()
					m.flush()
				case r < 98:
					what = "FastForward"
					dh, dm, dt, k := uint64(rng.Intn(50)), uint64(rng.Intn(20)), uint64(rng.Intn(70)), int64(rng.Intn(4))
					c.FastForward(dh, dm, dt, k)
					m.fastForward(dh, dm, dt, k)
				default:
					what = "Clone"
					frozen = append(frozen, pair{c, m})
					c, m = c.Clone(), m.clone()
				}
				check(op, what, c, m)
			}
			return c, m
		}
		c, m = run(c, m, ops)
		// Clone isolation: each original left behind still matches its
		// model, and keeps matching when driven on its own.
		for _, p := range frozen {
			check(-1, "clone original", p.c, p.m)
			run(p.c, p.m, 200)
		}
		if h, mi := c.Stats(); h == 0 || mi == 0 {
			t.Fatalf("ways=%d: stream produced %d hits, %d misses; want both", ways, h, mi)
		}
	}
}
