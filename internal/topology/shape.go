package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// DefaultExtraPerHopPS is the per-hop-unit extra memory latency a parsed
// (non-cube) shape assigns to its levels: 235 ns, the Origin2000's
// measured one-hop increment (564 − 329 ns from Table 1). A level with
// hop weight w contributes w × this on top of the local latency.
const DefaultExtraPerHopPS = 235_000

// Shape is a parsed machine shape: the node levels of a hierarchy plus
// the CPUs per node. The grammar is
//
//	[cube:]A1xA2x...xAk
//
// with k >= 2 components: the last is CPUs per node, the rest are level
// arities outermost first ("4x2x8" = 4 sockets × 2 dies of one node each,
// 8 CPUs per node). Hop weights default to 1 at the innermost node level
// and double outward, so every level subset has a distinct distance; each
// level carries hop × DefaultExtraPerHopPS of extra latency. The "cube:"
// prefix zeroes the extras and makes every level unit-hop — the Hamming
// distance of a hypercube — so "cube:2x2x2" is the paper's 4-node class-S
// machine, the hierarchy Cube(4) builds. Preset names
// (see Presets) parse to their spec.
type Shape struct {
	// Levels are the node levels, outermost first.
	Levels []Level
	// CPUsPerNode is the innermost fan-out, consumed by the machine
	// layer rather than the topology.
	CPUsPerNode int
	// Cube records the "cube:" prefix: unit hops, no extra latency.
	Cube bool
}

// Presets maps mnemonic shape names (case-insensitive in ParseShape) to
// their spec. origin is the paper's 8-node 16-CPU Origin2000; hier64/128/
// 256 are the modern multi-socket shapes the scaling sweeps target.
var Presets = map[string]string{
	"origin":  "cube:2x2x2x2",
	"hier64":  "4x2x8",
	"hier128": "4x4x8",
	"hier256": "8x4x8",
}

// levelNames names k node levels outermost first from the conventional
// tiers of a modern machine.
func levelNames(k int) []string {
	all := []string{"rack", "board", "socket", "die"}
	if k <= len(all) {
		return all[len(all)-k:]
	}
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("L%d", i)
	}
	return out
}

// maxShapeLevels, log2(MaxHierarchyNodes), bounds a shape's node levels:
// more levels of arity ≥ 2 exceed the node cap, and arity-1 levels only
// double the hop weights, whose sum sizes the LatencyExtras ladder.
const maxShapeLevels = 10

// ParseShape parses a shape string or preset name. It rejects shapes of
// more than MaxCPUs CPUs or maxShapeLevels node levels.
func ParseShape(s string) (Shape, error) {
	spec := strings.TrimSpace(s)
	if p, ok := Presets[strings.ToLower(spec)]; ok {
		spec = p
	}
	var sh Shape
	if rest, ok := strings.CutPrefix(spec, "cube:"); ok {
		sh.Cube = true
		spec = rest
	}
	parts := strings.Split(spec, "x")
	if len(parts) < 2 {
		return Shape{}, fmt.Errorf("topology: shape %q needs at least two components (levels then CPUs per node)", s)
	}
	arities := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return Shape{}, fmt.Errorf("topology: shape %q: component %q is not a positive integer", s, p)
		}
		arities[i] = v
	}
	if _, ok := CountCPUs(arities...); !ok {
		return Shape{}, fmt.Errorf("topology: shape %q exceeds %d CPUs", s, MaxCPUs)
	}
	sh.CPUsPerNode = arities[len(arities)-1]
	arities = arities[:len(arities)-1]
	if len(arities) > maxShapeLevels {
		return Shape{}, fmt.Errorf("topology: shape %q has %d node levels, more than %d", s, len(arities), maxShapeLevels)
	}
	sh.Levels = shapeLevels(arities, sh.Cube)
	return sh, nil
}

// shapeLevels names and weighs node levels of the given arities,
// outermost first, as the shape grammar describes.
func shapeLevels(arities []int, cube bool) []Level {
	names := levelNames(len(arities))
	levels := make([]Level, len(arities))
	hop := 1
	for i := len(arities) - 1; i >= 0; i-- {
		lv := Level{Name: names[i], Arity: arities[i], Hop: hop}
		if !cube {
			lv.ExtraPS = int64(hop) * DefaultExtraPerHopPS
			hop *= 2
		}
		levels[i] = lv
	}
	return levels
}

// String renders the canonical shape spec; ParseShape(sh.String()) is
// identity for every shape ParseShape produces. Fingerprints embed this
// form, so equivalent spellings of one shape collide in the caches.
func (sh Shape) String() string {
	var b strings.Builder
	if sh.Cube {
		b.WriteString("cube:")
	}
	for _, lv := range sh.Levels {
		fmt.Fprintf(&b, "%dx", lv.Arity)
	}
	fmt.Fprintf(&b, "%d", sh.CPUsPerNode)
	return b.String()
}

// NodeCount returns the product of the level arities.
func (sh Shape) NodeCount() int {
	n := 1
	for _, lv := range sh.Levels {
		n *= lv.Arity
	}
	return n
}

// CPUCount returns NodeCount × CPUsPerNode.
func (sh Shape) CPUCount() int { return sh.NodeCount() * sh.CPUsPerNode }

// CubeEquivalent reports whether the shape is the default machine with the
// given node and CPU counts: a cube shape (unit hops, no extras) of
// all-binary levels with matching counts builds the hierarchy Cube(nodes)
// builds, so a run on it is bit-identical to a run without a shape.
// Fingerprinting canonicalises such shapes away, keeping every historical
// cache entry and store record valid.
func (sh Shape) CubeEquivalent(nodes, cpusPerNode int) bool {
	if !sh.Cube || sh.CPUsPerNode != cpusPerNode || sh.NodeCount() != nodes {
		return false
	}
	for _, lv := range sh.Levels {
		if lv.Arity != 2 || lv.Hop != 1 || lv.ExtraPS != 0 {
			return false
		}
	}
	return true
}
