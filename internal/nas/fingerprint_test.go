package nas

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/metrics"
	"upmgo/internal/trace"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

func TestFingerprintCanonicalisesComputeScale(t *testing.T) {
	a, ok := (Config{Class: ClassS}).Fingerprint()
	if !ok {
		t.Fatal("plain config not memoizable")
	}
	b, _ := (Config{Class: ClassS, ComputeScale: 1}).Fingerprint()
	if a != b {
		t.Errorf("ComputeScale 0 and 1 fingerprint differently:\n%s\n%s", a, b)
	}
	c, _ := (Config{Class: ClassS, ComputeScale: 4}).Fingerprint()
	if c == a {
		t.Error("ComputeScale 4 collides with 1")
	}
}

func TestFingerprintDistinguishesEveryDial(t *testing.T) {
	base := Config{Class: ClassW, Placement: vm.FirstTouch, Seed: 42}
	variants := []Config{
		base,
		{Class: ClassS, Placement: vm.FirstTouch, Seed: 42},
		{Class: ClassW, Placement: vm.WorstCase, Seed: 42},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 43},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, KernelMig: true},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, UPM: UPMDistribute},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, UPM: UPMRecRep,
			UPMOptions: upm.Options{MaxCritical: 20}},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, Iterations: 7},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, Threads: 8},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, PerturbAt: 3},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, SkipVerify: true},
	}
	seen := map[string]int{}
	for i, cfg := range variants {
		fp, ok := cfg.Fingerprint()
		if !ok {
			t.Fatalf("variant %d not memoizable", i)
		}
		if j, dup := seen[fp]; dup {
			t.Errorf("variants %d and %d collide: %s", j, i, fp)
		}
		seen[fp] = i
	}
}

func TestFingerprintRejectsTweakedConfigs(t *testing.T) {
	cfg := Config{Class: ClassS, Tweak: func(mc *machine.Config) { mc.PageBytes = 4096 }}
	if _, ok := cfg.Fingerprint(); ok {
		t.Error("config with a Tweak function must not be memoizable")
	}
}

func TestFingerprintRejectsTracedConfigs(t *testing.T) {
	// A cache hit would serve the result without re-simulating, silently
	// dropping the requested trace; traced cells must always simulate.
	cfg := Config{Class: ClassS, Tracer: trace.NewRecorder()}
	if _, ok := cfg.Fingerprint(); ok {
		t.Error("config with a Tracer must not be memoizable")
	}
}

// referenceView is the historical fingerprint encoding: fmt's %+v of
// this struct, the pre-topology Config field list in its original
// order, with the hooks and the long-gone TailCache as always-nil
// placeholders, and the engine options as their fields stood then.
// Fingerprint writes the same bytes field by field;
// TestFingerprintMatchesReference holds it to them.
type referenceView struct {
	Class      Class
	Placement  vm.Policy
	KernelMig  bool
	UPM        Mode
	UPMOptions struct {
		Threshold                  float64
		MinAccesses                uint32
		MaxCritical, FreezeBounces int
		ScanCostPerPage            int64
	}
	Kmig struct {
		Threshold                         uint32
		MaxPerScan, ScanEvery, DecayEvery int
		MinScanPS                         int64
	}
	Threads      int
	Iterations   int
	ComputeScale int
	PerturbAt    int
	Seed         uint64
	Tweak        func(mc *machine.Config)
	Tracer       trace.Tracer
	Metrics      *metrics.Sampler
	SkipVerify   bool
	SteadyState  bool
	Extrapolate  bool
	SteadyWindow int
	TailCache    *struct{}
}

// referenceFingerprint is Fingerprint as the frozen view rendered it.
func referenceFingerprint(c Config) (string, bool) {
	if c.Tweak != nil || c.Tracer != nil || c.Metrics != nil {
		return "", false
	}
	if c.ComputeScale < 1 {
		c.ComputeScale = 1
	}
	if !c.SteadyState {
		c.Extrapolate = false
		c.SteadyWindow = 0
	} else if c.SteadyWindow <= 0 {
		c.SteadyWindow = steadyWindowDefault
	}
	v := referenceView{
		Class: c.Class, Placement: c.Placement, KernelMig: c.KernelMig, UPM: c.UPM,
		Threads: c.Threads, Iterations: c.Iterations,
		ComputeScale: c.ComputeScale, PerturbAt: c.PerturbAt, Seed: c.Seed,
		SkipVerify: c.SkipVerify, SteadyState: c.SteadyState, Extrapolate: c.Extrapolate,
		SteadyWindow: c.SteadyWindow,
	}
	o, k := c.UPMOptions, c.Kmig
	v.UPMOptions.Threshold, v.UPMOptions.MinAccesses, v.UPMOptions.MaxCritical = o.Threshold, o.MinAccesses, o.MaxCritical
	v.UPMOptions.FreezeBounces, v.UPMOptions.ScanCostPerPage = o.FreezeBounces, o.ScanCostPerPage
	v.Kmig.Threshold, v.Kmig.MaxPerScan, v.Kmig.ScanEvery = k.Threshold, k.MaxPerScan, k.ScanEvery
	v.Kmig.DecayEvery, v.Kmig.MinScanPS = k.DecayEvery, k.MinScanPS
	fp := fmt.Sprintf("%+v", v)
	if t := c.canonTopo(); t != "" {
		fp += " topo=" + t
	}
	return fp, true
}

// TestFingerprintMatchesReference compares Fingerprint with the frozen
// view's %+v rendering byte for byte over random configs: negative and
// out-of-range enums (whose String panics or names the raw value),
// non-integral and non-finite thresholds, negative counts and shapes.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	small := func() int { return rng.IntN(9) - 3 }
	floats := []float64{0, 1.5, 2, -0.25, 1e21, 1e-7, math.Inf(1), math.NaN()}
	topos := []string{"", "cube:2x2x2", "hier64", "4x2x8", "HIER64", "9q"}
	for i := 0; i < 4000; i++ {
		c := Config{
			Class:     Class(small()),
			Placement: vm.Policy(small()),
			KernelMig: rng.IntN(2) == 1,
			UPM:       Mode(small()),
			UPMOptions: upm.Options{
				Threshold:       floats[rng.IntN(len(floats))],
				MinAccesses:     rng.Uint32(),
				MaxCritical:     small(),
				FreezeBounces:   small(),
				ScanCostPerPage: rng.Int64() - rng.Int64(),
			},
			Kmig: kmig.Config{
				Threshold:  rng.Uint32(),
				MaxPerScan: small(),
				ScanEvery:  small(),
				DecayEvery: small(),
				MinScanPS:  int64(small()) * 1e9,
			},
			Threads:      small(),
			Iterations:   small(),
			ComputeScale: small(),
			PerturbAt:    small(),
			Seed:         rng.Uint64(),
			SkipVerify:   rng.IntN(2) == 1,
			SteadyState:  rng.IntN(2) == 1,
			Extrapolate:  rng.IntN(2) == 1,
			SteadyWindow: small(),
		}
		// canonTopo reads the class's default machine, which only a
		// valid class has.
		if c.Class >= ClassS && c.Class <= ClassA {
			c.Topo = topos[rng.IntN(len(topos))]
		}
		got, gok := c.Fingerprint()
		want, wok := referenceFingerprint(c)
		if got != want || gok != wok {
			t.Fatalf("config %d: %#v\n got %q %v\nwant %q %v", i, c, got, gok, want, wok)
		}
	}
}

// TestFingerprintCoversEveryField perturbs each field of Config, and of
// the engine options it nests, one at a time and requires the
// fingerprint to change, unless the field is listed here as deliberately
// outside the encoding. A field added to Config, upm.Options or
// kmig.Config but not to Fingerprint fails here: left out of the key, it
// would let two different runs share one cache entry and store record.
func TestFingerprintCoversEveryField(t *testing.T) {
	outside := map[string]string{
		"HostStages": "observation only",
		"Topo":       "joins as a suffix",
		"Tweak":      "unmemoizable",
		"Tracer":     "unmemoizable",
		"Metrics":    "unmemoizable",
	}
	// SteadyState armed, so the steady knobs it gates are live.
	base := Config{SteadyState: true}
	bfp, _ := base.Fingerprint()
	perturb := func(t *testing.T, v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 2)
		case reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 2)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1.5)
		case reflect.String:
			v.SetString("hier64")
		case reflect.Func:
			v.Set(reflect.ValueOf(func(*machine.Config) {}))
		case reflect.Interface:
			v.Set(reflect.ValueOf(trace.NewRecorder()))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("no perturbation for a %s field", v.Type())
		}
	}
	var check func(path string, get func(*Config) reflect.Value)
	check = func(path string, get func(*Config) reflect.Value) {
		typ := get(&base).Type()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + f.Name
			field := func(c *Config) reflect.Value { return get(c).Field(i) }
			if f.Type.Kind() == reflect.Struct {
				check(name+".", field)
				continue
			}
			c := base
			perturb(t, field(&c))
			fp, ok := c.Fingerprint()
			switch why := outside[name]; {
			case why == "unmemoizable":
				if ok {
					t.Errorf("%s set, yet the config is memoizable", name)
				}
			case why == "observation only":
				if !ok || fp != bfp {
					t.Errorf("%s moved the fingerprint: %q", name, fp)
				}
			case why == "joins as a suffix":
				if !ok || fp != bfp+" topo=4x2x8" {
					t.Errorf("%s did not join as a suffix: %q", name, fp)
				}
			case !ok || fp == bfp:
				t.Errorf("%s is not encoded in the fingerprint (%q, %v); encode it, or list why not", name, fp, ok)
			case !strings.Contains(fp, f.Name+":"):
				t.Errorf("%s changes the fingerprint, but it is not named in it: %q", name, fp)
			}
		}
	}
	check("", func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem() })
}
