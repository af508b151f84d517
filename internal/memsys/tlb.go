package memsys

import "fmt"

// TLB is a set-associative translation lookaside buffer over virtual page
// numbers. Each entry carries the page-table generation observed when the
// translation was loaded; a page migration bumps the page's generation, so
// stale entries miss on their next use. This models lazy TLB shootdown —
// the eager interprocessor-interrupt cost of a shootdown is charged by the
// migration engines themselves.
//
// Each set keeps its valid ways in recency order, most recently used
// first, with invalid ways behind them: a hit, a stale refill or a fill
// moves the entry to way 0, so the LRU victim is always the last way.
// LookupRun is the only probe, which keeps the order exact: a translation
// is loaded only after it missed, so it is never resident twice.
type TLB struct {
	ways    int
	setMask uint64
	vpns    []uint64 // sets*ways, MRU first per set; vpn+1, 0 invalid
	gens    []uint32
}

// CheckTLB reports whether NewTLB accepts the shape: entries must be a
// power-of-two multiple of ways.
func CheckTLB(entries, ways int) error {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		return fmt.Errorf("memsys: TLB shape %d entries / %d ways invalid", entries, ways)
	}
	if sets := entries / ways; sets&(sets-1) != 0 {
		return fmt.Errorf("memsys: TLB set count %d not a power of two", sets)
	}
	return nil
}

// NewTLB builds a TLB with the given number of entries and associativity.
// entries must be a power-of-two multiple of ways.
func NewTLB(entries, ways int) (*TLB, error) {
	if err := CheckTLB(entries, ways); err != nil {
		return nil, err
	}
	sets := entries / ways
	return &TLB{
		ways:    ways,
		setMask: uint64(sets - 1),
		vpns:    make([]uint64, entries),
		gens:    make([]uint32, entries),
	}, nil
}

// MustTLB is NewTLB for statically known shapes.
func MustTLB(entries, ways int) *TLB {
	t, err := NewTLB(entries, ways)
	if err != nil {
		panic(err)
	}
	return t
}

// LookupRun performs a run of n ≥ 1 lookups of vpn at generation gen
// and reports whether the first hit (the caller charges one refill when
// it did not). The first lookup hits only if vpn is loaded at generation
// gen; an entry of another generation is stale (a shootdown took effect)
// and misses. A miss loads the translation at gen, evicting the LRU way,
// so the remaining n-1 lookups are the guaranteed hits a just-loaded
// translation gives, and the recency order comes out exactly as n
// lookups against per-way timestamps of the last use would leave it:
// the outcome does not depend on n, which LookupRun does not read. The
// TLB keeps no counts; the caller's CPUStats does.
func (t *TLB) LookupRun(vpn uint64, gen uint32, _ int) bool {
	set, tag := int(vpn&t.setMask)*t.ways, vpn+1
	vpns, gens := t.vpns, t.gens
	// w stops at the entry's way or, on a miss, at the last way, which
	// holds the LRU entry or an invalid one; the ways in front of it shift
	// back by one and the entry moves to way 0.
	w, last := set, set+t.ways-1
	for w < last && vpns[w] != tag {
		w++
	}
	hit := vpns[w] == tag && gens[w] == gen
	for ; w > set; w-- {
		vpns[w], gens[w] = vpns[w-1], gens[w-1]
	}
	vpns[set], gens[set] = tag, gen
	return hit
}

// Resident reports whether vpn is loaded, at any generation. Lookups
// move vpn to way 0 whether they hit or miss, so residency depends only
// on the sequence of vpns looked up, never on their generations.
func (t *TLB) Resident(vpn uint64) bool {
	set := int(vpn&t.setMask) * t.ways
	for _, v := range t.vpns[set : set+t.ways] {
		if v == vpn+1 {
			return true
		}
	}
	return false
}

// Ways returns the resident vpns, set by set in recency order (vpn+1,
// 0 for an invalid way). The slice is the TLB's own; do not modify it.
func (t *TLB) Ways() []uint64 { return t.vpns }

// Clone returns a deep copy of the TLB: resident translations with their
// shootdown generations in recency order. See Cache.Clone for the
// snapshot/fork use.
func (t *TLB) Clone() *TLB {
	return &TLB{
		ways:    t.ways,
		setMask: t.setMask,
		vpns:    append([]uint64(nil), t.vpns...),
		gens:    append([]uint32(nil), t.gens...),
	}
}

// Flush drops every translation.
func (t *TLB) Flush() { clear(t.vpns) }

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return len(t.vpns) }
