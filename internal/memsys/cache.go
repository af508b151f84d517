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
// Each set keeps its ways in recency order, most recently used first: a
// probe tries way 0 first, every hit, stale refill or fill moves the line
// to way 0, and the LRU victim is always the last way. Invalid ways only
// arise from construction and Flush, which clear whole sets, so they
// always sit behind the valid ones and are filled first.
//
// Tags are derived from virtual addresses. A virtually-indexed,
// virtually-tagged cache means a page migration does not displace cached
// lines; the migration cost and TLB shootdown are charged explicitly
// elsewhere. DESIGN.md lists this as a documented simplification.
type Cache struct {
	lineShift uint
	setMask   uint64
	ways      int
	tags      []uint64 // sets*ways, MRU first per set; 0 means invalid, otherwise lineAddr+1
	vers      []uint32 // coherence version captured when the line was filled
}

// CheckCache reports whether NewCache accepts the shape: sizeBytes must
// be a multiple of lineBytes*ways and all shape parameters must be
// powers of two.
func CheckCache(sizeBytes, lineBytes, ways int) error {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return fmt.Errorf("memsys: line size %d not a power of two", lineBytes)
	}
	if ways <= 0 {
		return fmt.Errorf("memsys: associativity %d invalid", ways)
	}
	if sizeBytes <= 0 || sizeBytes%(lineBytes*ways) != 0 {
		return fmt.Errorf("memsys: size %d not divisible by line*ways = %d", sizeBytes, lineBytes*ways)
	}
	if sets := sizeBytes / (lineBytes * ways); sets&(sets-1) != 0 {
		return fmt.Errorf("memsys: set count %d not a power of two", sets)
	}
	return nil
}

// NewCache builds a cache of sizeBytes with lineBytes lines and the given
// associativity, a shape CheckCache accepts.
func NewCache(sizeBytes, lineBytes, ways int) (*Cache, error) {
	if err := CheckCache(sizeBytes, lineBytes, ways); err != nil {
		return nil, err
	}
	sets := sizeBytes / (lineBytes * ways)
	c := &Cache{
		ways: ways,
		tags: make([]uint64, sets*ways),
		vers: make([]uint32, sets*ways),
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
// Immediately repeated references to a just-touched line are guaranteed
// hits that move nothing, so one Access stands for a run of accesses
// within one line: the bulk path of internal/machine probes once per run.
// The cache keeps no counts; the caller's CPUStats does.
func (c *Cache) Access(addr uint64, ver, newVer uint32) bool {
	line := addr >> c.lineShift
	return c.probe(int(line&c.setMask)*c.ways, line+1, ver, newVer)
}

// probe looks tag up in the set whose first way is set, refills a stale
// copy or, on a miss, evicts the LRU (last) way, and moves the line to way
// 0 with version newVer. It reports whether the line was resident at
// version ver.
func (c *Cache) probe(set int, tag uint64, ver, newVer uint32) bool {
	tags, vers := c.tags, c.vers
	if tags[set] == tag { // already MRU: nothing moves
		hit := vers[set] == ver
		vers[set] = newVer
		return hit
	}
	// w stops at the line's way or, on a miss, at the LRU way it evicts;
	// the ways in front of it shift back by one.
	last := set + c.ways - 1
	w := min(set+1, last)
	for w < last && tags[w] != tag {
		w++
	}
	hit := tags[w] == tag && vers[w] == ver
	for ; w > set; w-- {
		tags[w], vers[w] = tags[w-1], vers[w-1]
	}
	tags[set], vers[set] = tag, newVer
	return hit
}

// AccessLines probes nLines consecutive cache lines in one call — the
// whole-coherence-unit companion to Access for contiguous runs whose
// stride does not exceed the line size. The first line validates against
// ver and every later line against newVer (the caller has just stamped
// the unit's new version), exactly as successive per-line Access calls
// would, and the recency order comes out bit-identical. The three
// per-line element counts are not read. It returns the number of missing
// lines plus the address and version of the first miss, which the caller
// forwards to the next cache level.
func (c *Cache) AccessLines(addr uint64, nLines, _, _, _ int, ver, newVer uint32) (misses int, missAddr uint64, missVer uint32) {
	tags, vers, shift, mask, ways := c.tags, c.vers, c.lineShift, c.setMask, c.ways
	line, v := addr>>shift, ver
	for i := 0; i < nLines; i++ {
		set, tag := int(line&mask)*ways, line+1
		var hit bool
		if ways == 2 {
			// The paper machine's caches are 2-way: a hit in way 0 is
			// already MRU, and a hit in way 1, a stale copy there or a
			// fill all swap way 0 into the LRU slot.
			if tags[set] == tag {
				hit = vers[set] == v
				vers[set] = newVer
			} else {
				hit = tags[set+1] == tag && vers[set+1] == v
				tags[set+1], vers[set+1] = tags[set], vers[set]
				tags[set], vers[set] = tag, newVer
			}
		} else {
			hit = c.probe(set, tag, v, newVer)
		}
		if !hit {
			if misses == 0 {
				missAddr, missVer = line<<shift, v
			}
			misses++
		}
		v = newVer
		line++
	}
	return misses, missAddr, missVer
}

// Clone returns a deep copy of the cache: tags and coherence versions in
// their recency order. Subsequent accesses to either copy leave the other
// bit-for-bit untouched, which is what lets a forked machine resume a
// simulation exactly where its parent stopped.
func (c *Cache) Clone() *Cache {
	return &Cache{
		lineShift: c.lineShift,
		setMask:   c.setMask,
		ways:      c.ways,
		tags:      append([]uint64(nil), c.tags...),
		vers:      append([]uint32(nil), c.vers...),
	}
}

// Contains reports whether addr is resident without disturbing the
// recency order.
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

// Lines returns the cache's tags and coherence versions: one entry per
// way, sets in index order and each set's ways in recency order. A tag
// is 0 for an invalid way, else the line address + 1. The slices are
// the cache's own, so callers must not modify them.
func (c *Cache) Lines() (tags []uint64, vers []uint32) { return c.tags, c.vers }

// Flush invalidates the whole cache.
func (c *Cache) Flush() { clear(c.tags) }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.tags) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
