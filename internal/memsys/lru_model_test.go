package memsys

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// lruModel is the timestamp-LRU cache that Cache replaced: every way
// carries the tick of its last access, and a miss evicts the way with the
// smallest stamp (the first one on a tie, so invalid ways fill first). It
// is kept only as the reference that recency-ordered ways must match.
type lruModel struct {
	lineShift uint
	setMask   uint64
	ways      int
	tags      []uint64
	vers      []uint32
	age       []uint64
	tick      uint64
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

// access is the reference for Access.
func (m *lruModel) access(addr uint64, ver, newVer uint32) bool {
	line := addr >> m.lineShift
	set := int(line&m.setMask) * m.ways
	tag := line + 1
	m.tick++
	for w := 0; w < m.ways; w++ {
		if m.tags[set+w] == tag {
			m.age[set+w] = m.tick
			hit := m.vers[set+w] == ver
			m.vers[set+w] = newVer
			return hit
		}
	}
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
// access calls, the first validating against ver and the rest against
// newVer.
func (m *lruModel) accessLines(addr uint64, nLines int, ver, newVer uint32) (misses int, missAddr uint64, missVer uint32) {
	line, v := addr>>m.lineShift, ver
	for i := 0; i < nLines; i++ {
		if !m.access(line<<m.lineShift, v, newVer) {
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

// order returns set s's valid lines as (tag, version) pairs, most
// recently used first: the way order a recency-ordered cache must hold.
func (m *lruModel) order(s int) [][2]uint64 {
	var ws []int
	for w := s * m.ways; w < (s+1)*m.ways; w++ {
		if m.tags[w] != 0 {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return m.age[ws[i]] > m.age[ws[j]] })
	out := make([][2]uint64, len(ws))
	for i, w := range ws {
		out[i] = [2]uint64{m.tags[w], uint64(m.vers[w])}
	}
	return out
}

func (m *lruModel) flush() {
	clear(m.tags)
	clear(m.age)
}

func (m *lruModel) clone() *lruModel {
	k := *m
	k.tags = append([]uint64(nil), m.tags...)
	k.vers = append([]uint32(nil), m.vers...)
	k.age = append([]uint64(nil), m.age...)
	return &k
}

// TestCacheMatchesTimestampLRU drives Cache and the timestamp-LRU model
// with one seeded random stream of Access and AccessLines (current and
// stale versions), Flush and Clone, and after every operation compares
// the return values, every set's lines and versions in recency order
// (invalid ways behind the valid ones) and the residency of every line
// the stream can touch. The span of addresses is a few times the cache,
// so sets see hits, stale refills and evictions. Every benchmark machine
// is 2-way, so this is the only coverage of the general probe.
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
		hits, misses := 0, 0
		check := func(op int, what string, c *Cache, m *lruModel) {
			t.Helper()
			tags, vers := c.Lines()
			for s := 0; s < sets; s++ {
				want := m.order(s)
				for w := 0; w < ways; w++ {
					i := s*ways + w
					got := [2]uint64{tags[i], uint64(vers[i])}
					if w >= len(want) && got[0] != 0 || w < len(want) && got != want[w] {
						t.Fatalf("ways=%d op %d (%s): set %d way %d holds %v, model order %v", ways, op, what, s, w, got, want)
					}
				}
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
				case r < 60:
					what = "Access"
					got, want := c.Access(addr, ver, newVer), m.access(addr, ver, newVer)
					if got != want {
						t.Fatalf("ways=%d op %d: Access = %v, model %v", ways, op, got, want)
					}
					if got {
						hits++
					} else {
						misses++
					}
				case r < 96:
					what = "AccessLines"
					nLines := 1 + rng.Intn(2*ways+2)
					gm, ga, gv := c.AccessLines(addr, nLines, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4), ver, newVer)
					wm, wa, wv := m.accessLines(addr, nLines, ver, newVer)
					if gm != wm || ga != wa || gv != wv {
						t.Fatalf("ways=%d op %d: AccessLines = (%d,%#x,%d), model (%d,%#x,%d)", ways, op, gm, ga, gv, wm, wa, wv)
					}
					hits, misses = hits+nLines-gm, misses+gm
				case r < 98:
					what = "Flush"
					c.Flush()
					m.flush()
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
		if hits == 0 || misses == 0 {
			t.Fatalf("ways=%d: stream produced %d hits, %d misses; want both", ways, hits, misses)
		}
	}
}

// tlbModel is the timestamp-LRU TLB that TLB replaced: every way carries
// the tick of its last use, a stale entry is invalidated where it sits,
// and an insert takes the first invalid way or else the one with the
// smallest stamp. It is kept only as the reference that recency-ordered
// ways must match.
type tlbModel struct {
	ways    int
	setMask uint64
	vpns    []uint64
	gens    []uint32
	age     []uint64
	tick    uint64
}

func newTLBModel(entries, ways int) *tlbModel {
	return &tlbModel{ways: ways, setMask: uint64(entries/ways - 1),
		vpns: make([]uint64, entries), gens: make([]uint32, entries), age: make([]uint64, entries)}
}

// setOf returns the index of vpn's set's first way.
func (m *tlbModel) setOf(vpn uint64) int { return int(vpn&m.setMask) * m.ways }

func (m *tlbModel) lookup(vpn uint64, gen uint32) bool {
	set := m.setOf(vpn)
	m.tick++
	for w := 0; w < m.ways; w++ {
		if m.vpns[set+w] == vpn+1 {
			if m.gens[set+w] != gen {
				m.vpns[set+w] = 0
				return false
			}
			m.age[set+w] = m.tick
			return true
		}
	}
	return false
}

func (m *tlbModel) insert(vpn uint64, gen uint32) {
	set := int(vpn&m.setMask) * m.ways
	m.tick++
	victim := set
	for w := 0; w < m.ways; w++ {
		if m.vpns[set+w] == vpn+1 || m.vpns[set+w] == 0 {
			victim = set + w
			break
		}
		if m.age[set+w] < m.age[victim] {
			victim = set + w
		}
	}
	m.vpns[victim], m.gens[victim], m.age[victim] = vpn+1, gen, m.tick
}

// lookupRun is the reference for LookupRun: a lookup, an insert after a
// miss, and n-1 further hits that refresh the entry's stamp.
func (m *tlbModel) lookupRun(vpn uint64, gen uint32, n int) bool {
	hit := m.lookup(vpn, gen)
	if !hit {
		m.insert(vpn, gen)
	}
	for i := 1; i < n; i++ {
		m.lookup(vpn, gen)
	}
	return hit
}

func (m *tlbModel) clone() *tlbModel {
	k := *m
	k.vpns = append([]uint64(nil), m.vpns...)
	k.gens = append([]uint32(nil), m.gens...)
	k.age = append([]uint64(nil), m.age...)
	return &k
}

// order returns set s's valid entries as (vpn+1, gen) pairs, most recently
// used first: the way order a recency-ordered TLB must hold.
func (m *tlbModel) order(s int) [][2]uint64 {
	var ws []int
	for w := s * m.ways; w < (s+1)*m.ways; w++ {
		if m.vpns[w] != 0 {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return m.age[ws[i]] > m.age[ws[j]] })
	out := make([][2]uint64, len(ws))
	for i, w := range ws {
		out[i] = [2]uint64{m.vpns[w], uint64(m.gens[w])}
	}
	return out
}

// TestTLBResidencyIgnoresGenerations: two TLBs looked up with one
// seeded vpn sequence, one always at generation 0 and one at
// generations that change at random, hold the same vpns in the same
// order after every lookup. A stream replay rests on this: residency
// can be recorded once, and placement reaches a lookup only through the
// generation.
func TestTLBResidencyIgnoresGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fixed, moving := MustTLB(16, 4), MustTLB(16, 4)
	gen := make([]uint32, 64)
	for op := 0; op < 4000; op++ {
		vpn := uint64(rng.Intn(len(gen)))
		if rng.Intn(4) == 0 {
			gen[vpn]++
		}
		if fixed.Resident(vpn) != moving.Resident(vpn) {
			t.Fatalf("op %d: Resident(%d) differs", op, vpn)
		}
		n := 1 + rng.Intn(3)
		fixed.LookupRun(vpn, 0, n)
		moving.LookupRun(vpn, gen[vpn], n)
		if !slices.Equal(fixed.Ways(), moving.Ways()) {
			t.Fatalf("op %d: ways %v and %v differ", op, fixed.Ways(), moving.Ways())
		}
	}
}

// TestTLBMatchesTimestampLRU drives TLB and the timestamp-LRU model with
// one seeded random stream of LookupRun (n ≥ 1, at the page's current
// generation, after a migration bumped it, or at an older one), Flush and
// Clone, and after every operation compares the return values and, set
// by set, the resident translations in recency order, with invalid ways
// behind the valid ones. The span of pages is a few times the TLB,
// so sets see hits, stale refills and evictions.
func TestTLBMatchesTimestampLRU(t *testing.T) {
	const sets, ops = 4, 6000
	for _, ways := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(200 + ways)))
		entries := sets * ways
		span := 3 * entries // pages the stream touches
		cur := make([]uint32, span)
		tl, m := MustTLB(entries, ways), newTLBModel(entries, ways)
		type pair struct {
			t *TLB
			m *tlbModel
		}
		var frozen []pair // originals left behind by Clone; must not move
		hits, misses := 0, 0
		check := func(op int, what string, tl *TLB, m *tlbModel) {
			t.Helper()
			for s := 0; s < sets; s++ {
				want := m.order(s)
				for w := 0; w < ways; w++ {
					i := s*ways + w
					got := [2]uint64{tl.Ways()[i], uint64(tl.gens[i])}
					if w >= len(want) && got[0] != 0 || w < len(want) && got != want[w] {
						t.Fatalf("ways=%d op %d (%s): set %d way %d holds %v, model order %v", ways, op, what, s, w, got, want)
					}
				}
			}
		}
		run := func(tl *TLB, m *tlbModel, count int) (*TLB, *tlbModel) {
			for op := 0; op < count; op++ {
				vpn := uint64(rng.Intn(span))
				var what string
				switch r := rng.Intn(100); {
				case r < 94:
					what = "LookupRun"
					gen := cur[vpn]
					switch g := rng.Intn(10); {
					case g == 0:
						cur[vpn]++ // a migration: resident copies go stale
						gen = cur[vpn]
					case g == 1 && gen > 0:
						gen-- // an older generation than the resident one
					}
					n := 1 + rng.Intn(5)
					if got, want := tl.Resident(vpn), slices.Contains(m.vpns[m.setOf(vpn):m.setOf(vpn)+ways], vpn+1); got != want {
						t.Fatalf("ways=%d op %d: Resident(%d) = %v, model %v", ways, op, vpn, got, want)
					}
					got, want := tl.LookupRun(vpn, gen, n), m.lookupRun(vpn, gen, n)
					if got != want {
						t.Fatalf("ways=%d op %d: LookupRun(%d, %d, %d) = %v, model %v", ways, op, vpn, gen, n, got, want)
					}
					if got {
						hits++
					} else {
						misses++
					}
				case r < 97:
					what = "Flush"
					tl.Flush()
					clear(m.vpns)
				default:
					what = "Clone"
					frozen = append(frozen, pair{tl, m})
					tl, m = tl.Clone(), m.clone()
				}
				check(op, what, tl, m)
			}
			return tl, m
		}
		tl, m = run(tl, m, ops)
		// Clone isolation: each original left behind still matches its
		// model, and keeps matching when driven on its own.
		for _, p := range frozen {
			check(-1, "clone original", p.t, p.m)
			run(p.t, p.m, 200)
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("ways=%d: stream produced %d hits, %d misses; want both", ways, hits, misses)
		}
	}
}
