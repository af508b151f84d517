package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// refJSON is the exact reference of the w1-steady workload: one payload
// digest per unique cell at one seed. Threads-1 cells are bit-identical
// run to run, so any difference is a change of simulated behaviour.
// Regenerate it only deliberately, with -update-ref.
//
//go:embed testdata/w1-steady.ref.json
var refJSON []byte

// refPath is where -update-ref writes, relative to the repository root.
const refPath = "bench/testdata/w1-steady.ref.json"

type reference struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Cells    []refCell `json:"cells"`
}

type refCell struct {
	Name    string `json:"name"`
	Address string `json:"address"`
	Digest  string `json:"digest"`
}

func loadReference() (reference, error) {
	var ref reference
	err := json.Unmarshal(refJSON, &ref)
	return ref, err
}

// newReference records a repetition's cells as the reference.
func newReference(workload string, seed uint64, cells []cellResult) reference {
	ref := reference{Workload: workload, Seed: seed}
	for _, c := range cells {
		ref.Cells = append(ref.Cells, refCell{c.Name, c.Address, c.Digest})
	}
	return ref
}

// refMismatches names the unique cells whose digest differs from the
// reference, or that only one side has.
func refMismatches(ref reference, cells []cellResult) []string {
	want := map[string]refCell{}
	for _, c := range ref.Cells {
		want[c.Address] = c
	}
	var out []string
	for _, c := range cells {
		r, ok := want[c.Address]
		switch {
		case !ok:
			out = append(out, c.Name+": not in the reference")
		case r.Digest != c.Digest:
			out = append(out, c.Name+": result differs from the reference")
		}
		delete(want, c.Address)
	}
	for _, addr := range sortedKeys(want) {
		out = append(out, want[addr].Name+": in the reference but not run")
	}
	return out
}

// nondetCells names the unique cells whose result differs between the
// repetitions of one run.
func nondetCells(reps []repResult) []string {
	digests := map[string]map[string]bool{}
	names := map[string]string{}
	for _, r := range reps {
		for _, c := range r.Cells {
			if digests[c.Address] == nil {
				digests[c.Address] = map[string]bool{}
			}
			digests[c.Address][c.Digest] = true
			names[c.Address] = c.Name
		}
	}
	var out []string
	for addr, ds := range digests {
		if len(ds) > 1 {
			out = append(out, names[addr])
		}
	}
	sort.Strings(out)
	return out
}

// anchorViolations checks the paper's shape on cells of a full-width run
// on its Origin2000: for every benchmark, wc-IRIX is the slowest of the
// plain IRIX bars, and UPMlib repairs it (wc-upmlib < wc-IRIX). Scaled
// cells (Figure 6) are left out, and so are cells on other machine shapes
// ("@shape" labels): on the toposcale grid at Class S, BT, SP and FT run
// ft-IRIX and wc-IRIX in identical time. At one thread the anchors do not
// hold either — every page is local to the only CPU under ft and wc.
func anchorViolations(cells []cellResult) []string {
	type group struct {
		irix   map[string]cellResult // placement -> X-IRIX cell
		upmlib *cellResult           // wc-upmlib
	}
	groups := map[string]*group{}
	for _, c := range cells {
		if c.Scale > 1 || strings.Contains(c.Label, "@") {
			continue
		}
		place, engine, _ := strings.Cut(c.Label, "-")
		g := groups[c.Bench]
		if g == nil {
			g = &group{irix: map[string]cellResult{}}
			groups[c.Bench] = g
		}
		switch {
		case engine == "IRIX":
			g.irix[place] = c
		case engine == "upmlib" && place == "wc":
			g.upmlib = &c
		}
	}
	var out []string
	for _, k := range sortedKeys(groups) {
		g := groups[k]
		wc, ok := g.irix["wc"]
		if !ok {
			continue
		}
		for _, p := range sortedKeys(g.irix) {
			if c := g.irix[p]; p != "wc" && c.VirtualS >= wc.VirtualS {
				out = append(out, fmt.Sprintf("%s: %.4fs is not the slowest IRIX bar (%s %.4fs)",
					wc.Name, wc.VirtualS, c.Label, c.VirtualS))
			}
		}
		if u := g.upmlib; u != nil && u.VirtualS >= wc.VirtualS {
			out = append(out, fmt.Sprintf("%s: %.4fs does not beat %s %.4fs", u.Name, u.VirtualS, wc.Label, wc.VirtualS))
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
