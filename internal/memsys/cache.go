// Package memsys provides the building blocks of the simulated memory
// hierarchy: set-associative caches, a TLB with generation-based shootdown,
// the ccNUMA latency ladder of the paper's Table 1, and the memory-node
// contention model. All times are integer picoseconds so that simulated
// executions are exactly reproducible across hosts.
package memsys

import "fmt"

// Cache is a set-associative, write-allocate cache with LRU replacement.
// It tracks tags only (the simulator keeps array values in ordinary Go
// memory); Access reports hit/miss and updates the replacement state.
//
// Tags are derived from virtual addresses. A virtually-indexed,
// virtually-tagged cache means a page migration does not displace cached
// lines; the migration cost and TLB shootdown are charged explicitly
// elsewhere. DESIGN.md lists this as a documented simplification.
type Cache struct {
	lineShift uint
	setMask   uint64
	ways      int
	tags      []uint64 // sets*ways, 0 means invalid, otherwise lineAddr+1
	vers      []uint32 // coherence version captured when the line was filled
	age       []uint64 // LRU timestamps, parallel to tags
	tick      uint64

	hits, misses uint64
}

// NewCache builds a cache of sizeBytes with lineBytes lines and the given
// associativity. sizeBytes must be a multiple of lineBytes*ways and all
// shape parameters must be powers of two.
func NewCache(sizeBytes, lineBytes, ways int) (*Cache, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("memsys: line size %d not a power of two", lineBytes)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("memsys: associativity %d invalid", ways)
	}
	if sizeBytes <= 0 || sizeBytes%(lineBytes*ways) != 0 {
		return nil, fmt.Errorf("memsys: size %d not divisible by line*ways = %d", sizeBytes, lineBytes*ways)
	}
	sets := sizeBytes / (lineBytes * ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("memsys: set count %d not a power of two", sets)
	}
	c := &Cache{
		ways: ways,
		tags: make([]uint64, sets*ways),
		vers: make([]uint32, sets*ways),
		age:  make([]uint64, sets*ways),
	}
	for lineBytes > 1 {
		lineBytes >>= 1
		c.lineShift++
	}
	c.setMask = uint64(sets - 1)
	return c, nil
}

// MustCache is NewCache for statically known shapes.
func MustCache(sizeBytes, lineBytes, ways int) *Cache {
	c, err := NewCache(sizeBytes, lineBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Access looks up addr at coherence version ver, returns true on a hit,
// and on a miss allocates the line (evicting the LRU way). A resident line
// whose stored version differs from ver is a stale copy — another CPU
// wrote the coherence unit since it was filled — and misses (the
// invalidation a real protocol would have delivered). On both hit and
// fill, the entry's version becomes newVer; a writer passes newVer > ver
// so its own copy stays valid while every other cache's copy goes stale.
func (c *Cache) Access(addr uint64, ver, newVer uint32) bool {
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.ways
	tag := line + 1
	c.tick++
	for w := 0; w < c.ways; w++ {
		if c.tags[set+w] == tag {
			c.age[set+w] = c.tick
			if c.vers[set+w] != ver {
				// Stale: treat as an invalidation-induced miss and
				// refill in place.
				c.vers[set+w] = newVer
				c.misses++
				return false
			}
			c.vers[set+w] = newVer
			c.hits++
			return true
		}
	}
	c.misses++
	victim := set
	for w := 1; w < c.ways; w++ {
		if c.age[set+w] < c.age[victim] {
			victim = set + w
		}
	}
	c.tags[victim] = tag
	c.vers[victim] = newVer
	c.age[victim] = c.tick
	return false
}

// AccessRange performs n consecutive accesses that all fall within the
// line containing addr: the first has the full lookup/fill/invalidate
// semantics of Access, and the remaining n-1 are the guaranteed hits that
// immediately repeated references to a just-touched line produce. It
// reports whether the first access hit. The replacement state it leaves
// behind — tick, the line's age, hit and miss counts — is bit-identical
// to n individual Access calls, which is what lets the bulk path of
// internal/machine substitute one probe for a per-element loop.
func (c *Cache) AccessRange(addr uint64, n int, ver, newVer uint32) bool {
	if n <= 0 {
		return true
	}
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.ways
	tag := line + 1
	c.tick += uint64(n)
	for w := 0; w < c.ways; w++ {
		if c.tags[set+w] == tag {
			c.age[set+w] = c.tick
			if c.vers[set+w] != ver {
				// Stale copy: the first access misses and refills in
				// place; the rest hit the refreshed line.
				c.vers[set+w] = newVer
				c.misses++
				c.hits += uint64(n - 1)
				return false
			}
			c.vers[set+w] = newVer
			c.hits += uint64(n)
			return true
		}
	}
	c.misses++
	c.hits += uint64(n - 1)
	victim := set
	for w := 1; w < c.ways; w++ {
		if c.age[set+w] < c.age[victim] {
			victim = set + w
		}
	}
	c.tags[victim] = tag
	c.vers[victim] = newVer
	c.age[victim] = c.tick
	return false
}

// AccessLines probes nLines consecutive cache lines in one call — the
// whole-coherence-unit companion to AccessRange for contiguous runs whose
// stride does not exceed the line size. The line containing addr holds
// firstCount elements, full middle lines perLine each, and the last line
// lastCount. The first element of the call validates against ver and
// every later line against newVer (the caller has just stamped the unit's
// new version), exactly as successive per-line AccessRange calls would;
// tick, ages, hit and miss counts come out bit-identical. It returns the
// number of missing lines plus the address and version of the first miss,
// which the caller forwards to the next cache level.
func (c *Cache) AccessLines(addr uint64, nLines, firstCount, perLine, lastCount int, ver, newVer uint32) (misses int, missAddr uint64, missVer uint32) {
	line := addr >> c.lineShift
	tags, vers, age := c.tags, c.vers, c.age
	tick, hits, missCnt := c.tick, c.hits, c.misses
	v := ver
	for i := 0; i < nLines; i++ {
		n := perLine
		if i == 0 {
			n = firstCount
		} else if i == nLines-1 {
			n = lastCount
		}
		set := int(line&c.setMask) * c.ways
		tag := line + 1
		tick += uint64(n)
		hit, resident := false, false
		if c.ways == 2 {
			// The paper machine's caches are 2-way; probing both ways
			// branch-free keeps this innermost loop flat.
			if tags[set] == tag {
				age[set] = tick
				resident = true
				hit = vers[set] == v
				vers[set] = newVer
			} else if tags[set+1] == tag {
				age[set+1] = tick
				resident = true
				hit = vers[set+1] == v
				vers[set+1] = newVer
			}
		} else {
			for w := 0; w < c.ways; w++ {
				if tags[set+w] == tag {
					age[set+w] = tick
					resident = true
					hit = vers[set+w] == v
					vers[set+w] = newVer
					break
				}
			}
		}
		if hit {
			hits += uint64(n)
		} else {
			if !resident {
				victim := set
				if c.ways == 2 {
					// Matches the general scan below for the 2-way
					// machine without paying the loop set-up.
					if age[set+1] < age[set] {
						victim = set + 1
					}
				} else {
					for w := 1; w < c.ways; w++ {
						if age[set+w] < age[victim] {
							victim = set + w
						}
					}
				}
				tags[victim] = tag
				vers[victim] = newVer
				age[victim] = tick
			}
			missCnt++
			hits += uint64(n - 1)
			if misses == 0 {
				missAddr, missVer = line<<c.lineShift, v
			}
			misses++
		}
		v = newVer
		line++
	}
	c.tick, c.hits, c.misses = tick, hits, missCnt
	return misses, missAddr, missVer
}

// Clone returns a deep copy of the cache: tags, coherence versions, LRU
// state and hit/miss counters. Subsequent accesses to either copy leave
// the other bit-for-bit untouched, which is what lets a forked machine
// resume a simulation exactly where its parent stopped.
func (c *Cache) Clone() *Cache {
	return &Cache{
		lineShift: c.lineShift,
		setMask:   c.setMask,
		ways:      c.ways,
		tags:      append([]uint64(nil), c.tags...),
		vers:      append([]uint32(nil), c.vers...),
		age:       append([]uint64(nil), c.age...),
		tick:      c.tick,
		hits:      c.hits,
		misses:    c.misses,
	}
}

// Contains reports whether addr is resident without disturbing LRU state.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.ways
	tag := line + 1
	for w := 0; w < c.ways; w++ {
		if c.tags[set+w] == tag {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.age[i] = 0
	}
}

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.tags) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Tick returns the LRU timestamp counter, which advances by exactly one
// per simulated access. The steady-state detector includes it in the
// per-iteration counter vector: equal tick deltas across iterations are a
// necessary condition for the replacement state to be on a periodic
// orbit.
func (c *Cache) Tick() uint64 { return c.tick }

// FastForward advances the cache's monotone counters by k repetitions of
// the per-iteration deltas (dHits, dMisses, dTick) without simulating the
// accesses behind them. The steady-state fast-forward engine calls this
// after proving the deltas repeat; tags, versions and relative LRU ages
// are left untouched, which is sound because an extrapolated run performs
// no further simulated accesses that could consult them.
func (c *Cache) FastForward(dHits, dMisses, dTick uint64, k int64) {
	c.hits += dHits * uint64(k)
	c.misses += dMisses * uint64(k)
	c.tick += dTick * uint64(k)
}
