package topology

import "fmt"

// Topology is the interconnect surface the memory system consumes. The
// simulator needs only the hop distance between two nodes (indexing the
// latency ladder), the closest-node order for best-effort page forwarding,
// and — for display and ladder derivation — the level structure. Hypercube
// and Hierarchy both implement it; Machine holds one.
type Topology interface {
	// Nodes returns the number of memory nodes.
	Nodes() int
	// Hops returns the network distance between nodes a and b; 0 for
	// a == b. Implementations panic on out-of-range ids, because a bad
	// node id always indicates memory-system corruption upstream.
	Hops(a, b int) int
	// Distance is Hops under its metric name. Hierarchical topologies
	// serve it from the cached per-level distance matrix.
	Distance(a, b int) int
	// Neighbors returns the node ids adjacent to a (distance equal to
	// one level's hop contribution), nearest level first.
	Neighbors(a int) []int
	// ByDistance returns all nodes ordered by increasing distance from
	// a, ties broken by ascending node id; the first element is a.
	ByDistance(a int) []int
	// MaxHops returns the network diameter.
	MaxHops() int
	// Levels returns the level structure, outermost first. For a
	// hypercube each dimension is a binary unit-hop level.
	Levels() []Level
}

// Level is one tier of a hierarchical NUMA machine (a rack, board, socket
// or die). A node id decomposes into one coordinate digit per level,
// outermost level first; two nodes that differ in a level's digit pay that
// level's Hop contribution once, regardless of how far the digits are
// apart (crossing a socket boundary costs the same whichever socket you
// land in).
type Level struct {
	// Name labels the level in ladders and shape strings ("socket").
	Name string
	// Arity is how many children the level fans out to (>= 1).
	Arity int
	// Hop is the distance contribution paid when two nodes differ at
	// this level (>= 1). The default shape grammar doubles it outward
	// (1, 2, 4, ...) so every level subset has a distinct distance.
	Hop int
	// ExtraPS is the extra memory latency in picoseconds charged on top
	// of the local ladder entry when an access crosses this level. Zero
	// everywhere means the machine keeps its configured MemByHops ladder.
	ExtraPS int64
}

// MaxHierarchyNodes bounds the node count of a Hierarchy; the cached
// distance matrix is n², and MaxCPUs caps machines tighter anyway.
const MaxHierarchyNodes = 1024

// MaxCPUs caps a machine's CPU count: the coherence directory records a
// line's last writer in an 8-bit field.
const MaxCPUs = 256

// CountCPUs returns the product of a machine's CPUs per node and node
// counts, and whether each is ≥ 1 and the product ≤ MaxCPUs. It checks
// before each multiplication, so no input overflows it.
func CountCPUs(factors ...int) (int, bool) {
	n := 1
	for _, f := range factors {
		if f < 1 || f > MaxCPUs/n {
			return 0, false
		}
		n *= f
	}
	return n, true
}

// Hierarchy is an arbitrary tree of levels — e.g. 4 sockets × 2 dies,
// with CPUs per node handled by the machine layer. Node ids are mixed-radix
// numbers over the level arities (outermost level most significant), and
// the distance between two nodes is the sum of the Hop contributions of
// every level where their digits differ. That sum is a true metric
// (symmetric, zero iff equal, triangle inequality per level), and a
// hierarchy of k binary unit-hop levels reproduces the 2^k-node
// hypercube's Hamming distances exactly — the bridge the bit-identity
// tests lean on. Distances are precomputed into an n×n matrix at
// construction; lookups never walk the tree.
type Hierarchy struct {
	levels  []Level
	stride  []int // stride[i]: id units per digit of level i
	n       int
	maxHops int
	dist    []int32 // n×n cached distance matrix
}

// NewHierarchy builds a hierarchy from levels, outermost first.
func NewHierarchy(levels []Level) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("topology: hierarchy needs at least one level")
	}
	n := 1
	maxHops := 0
	for i, lv := range levels {
		if lv.Arity < 1 {
			return nil, fmt.Errorf("topology: level %d arity %d invalid", i, lv.Arity)
		}
		if lv.Hop < 1 {
			return nil, fmt.Errorf("topology: level %d hop %d invalid (must be >= 1)", i, lv.Hop)
		}
		if lv.ExtraPS < 0 {
			return nil, fmt.Errorf("topology: level %d negative latency %d", i, lv.ExtraPS)
		}
		if n > MaxHierarchyNodes/lv.Arity {
			return nil, fmt.Errorf("topology: hierarchy exceeds %d nodes", MaxHierarchyNodes)
		}
		n *= lv.Arity
		if lv.Arity > 1 {
			maxHops += lv.Hop
		}
	}
	h := &Hierarchy{
		levels:  append([]Level(nil), levels...),
		stride:  make([]int, len(levels)),
		n:       n,
		maxHops: maxHops,
	}
	s := 1
	for i := len(levels) - 1; i >= 0; i-- {
		h.stride[i] = s
		s *= levels[i].Arity
	}
	h.dist = make([]int32, n*n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := int32(0)
			for i, lv := range levels {
				if (a/h.stride[i])%lv.Arity != (b/h.stride[i])%lv.Arity {
					d += int32(lv.Hop)
				}
			}
			h.dist[a*n+b] = d
			h.dist[b*n+a] = d
		}
	}
	return h, nil
}

// MustHierarchy is NewHierarchy for statically known shapes; it panics on
// a bad one.
func MustHierarchy(levels []Level) *Hierarchy {
	h, err := NewHierarchy(levels)
	if err != nil {
		panic(err)
	}
	return h
}

// Nodes returns the number of nodes (the product of the level arities).
func (h *Hierarchy) Nodes() int { return h.n }

// Hops returns the cached distance between nodes a and b. It panics on
// out-of-range ids, matching Hypercube.Hops.
func (h *Hierarchy) Hops(a, b int) int {
	if a < 0 || a >= h.n || b < 0 || b >= h.n {
		panic(fmt.Sprintf("topology: node out of range: Hops(%d,%d) on %d nodes", a, b, h.n))
	}
	return int(h.dist[a*h.n+b])
}

// Distance is Hops: the full metric served from the cached matrix.
func (h *Hierarchy) Distance(a, b int) int { return h.Hops(a, b) }

// Neighbors returns the nodes that differ from a in exactly one level's
// digit, innermost level first, digits ascending within a level — the
// order Hypercube.Neighbors produces on binary levels.
func (h *Hierarchy) Neighbors(a int) []int {
	if a < 0 || a >= h.n {
		panic(fmt.Sprintf("topology: node %d out of range (%d nodes)", a, h.n))
	}
	var out []int
	for i := len(h.levels) - 1; i >= 0; i-- {
		ar := h.levels[i].Arity
		own := (a / h.stride[i]) % ar
		base := a - own*h.stride[i]
		for d := 0; d < ar; d++ {
			if d != own {
				out = append(out, base+d*h.stride[i])
			}
		}
	}
	return out
}

// ByDistance returns all nodes ordered by increasing distance from a, ties
// broken by ascending node id; the first element is a itself. The memory
// manager uses this for best-effort forwarding when a migration target is
// full. The algorithm is the same distance-bucket sweep as Hypercube's, so
// identical metrics yield identical orders.
func (h *Hierarchy) ByDistance(a int) []int {
	out := make([]int, 0, h.n)
	for d := 0; d <= h.maxHops; d++ {
		for b := 0; b < h.n; b++ {
			if h.Hops(a, b) == d {
				out = append(out, b)
			}
		}
	}
	return out
}

// MaxHops returns the network diameter: the sum of the hop contributions
// of every level with more than one child.
func (h *Hierarchy) MaxHops() int { return h.maxHops }

// Levels returns a copy of the level structure, outermost first.
func (h *Hierarchy) Levels() []Level { return append([]Level(nil), h.levels...) }

// LatencyExtras returns, per hop distance 0..MaxHops, the extra memory
// latency in picoseconds that distance implies: the maximum over level
// subsets whose hop contributions sum to the distance of their summed
// ExtraPS. With the default doubling hop weights every distance decomposes
// uniquely, so the maximum is exact, not conservative. Distances no subset
// reaches inherit the previous entry, keeping the ladder monotone. The
// result is nil when no level carries extra latency — the machine then
// keeps its configured ladder, which is how a cube-shaped hierarchy stays
// bit-identical to the hypercube path.
func (h *Hierarchy) LatencyExtras() []int64 {
	any := false
	for _, lv := range h.levels {
		if lv.Arity > 1 && lv.ExtraPS != 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	const unreached = -1
	ext := make([]int64, h.maxHops+1)
	for d := 1; d <= h.maxHops; d++ {
		ext[d] = unreached
	}
	for _, lv := range h.levels {
		if lv.Arity <= 1 {
			continue
		}
		for d := h.maxHops - lv.Hop; d >= 0; d-- {
			if ext[d] == unreached {
				continue
			}
			if cand := ext[d] + lv.ExtraPS; cand > ext[d+lv.Hop] {
				ext[d+lv.Hop] = cand
			}
		}
	}
	for d := 1; d <= h.maxHops; d++ {
		if ext[d] == unreached {
			ext[d] = ext[d-1]
		}
	}
	return ext
}

// Distance on Hypercube is Hops under its metric name.
func (h *Hypercube) Distance(a, b int) int { return h.Hops(a, b) }

// Levels reports the hypercube as dim binary unit-hop levels, so ladder
// rendering and shape display treat both topologies uniformly.
func (h *Hypercube) Levels() []Level {
	out := make([]Level, h.dim)
	for d := range out {
		out[d] = Level{Name: fmt.Sprintf("dim%d", h.dim-1-d), Arity: 2, Hop: 1}
	}
	return out
}

var (
	_ Topology = (*Hypercube)(nil)
	_ Topology = (*Hierarchy)(nil)
)
