package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"upmgo/internal/topology"
)

// FuzzSweepSpecs decodes a sweep request body as cmd/sweepd's POST
// /v1/jobs does and enumerates its cells and their memo keys, the
// submission path every sweepd client reaches. It must never panic, and
// a request it accepts names a machine of 1 to MaxCPUs CPUs and has no
// negative Iterations or Threads. Seeds include
// the shapes that once crashed the simulator (committed under
// testdata/fuzz/FuzzSweepSpecs too).
func FuzzSweepSpecs(f *testing.F) {
	for _, body := range []string{
		`{"kind":"figure1","options":{"class":"S","benches":["BT"],"seed":42,"threads":1}}`,
		`{"kind":"figure4","options":{"class":"W","steady":true,"extrapolate":true}}`,
		`{"kind":"toposcale","options":{"class":"S","topo":"hier64"}}`,
		`{"kind":"figure6","options":{"scale":4,"iterations":3}}`,
		`{"kind":"table2","options":{"benches":["NOPE"]}}`,
		`{"kind":"figure6","options":{"class":"S","iterations":-1}}`,
		`{"kind":"figure1","options":{"threads":-3}}`,
		`{"kind":"figure9","options":{}}`,
		`{"kind":"figure1","options":{"topo":"2x` + strings.Repeat("1x", 40) + `2x2"}}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req SweepRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		specs, err := SweepSpecs(req)
		if err != nil {
			return
		}
		if o := req.Options; o.Iterations < 0 || o.Threads < 0 {
			t.Fatalf("SweepSpecs accepted iterations %d, threads %d", o.Iterations, o.Threads)
		}
		if topo := req.Options.Topo; topo != "" {
			sh, err := topology.ParseShape(topo)
			if err != nil {
				t.Fatalf("SweepSpecs accepted topo %q: %v", topo, err)
			}
			if n := sh.CPUCount(); n < 1 || n > topology.MaxCPUs {
				t.Fatalf("SweepSpecs accepted topo %q of %d CPUs", topo, n)
			}
		}
		for _, s := range specs {
			s.Key()
		}
	})
}
