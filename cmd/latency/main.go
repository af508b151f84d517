// Command latency probes the simulated ccNUMA memory hierarchy and prints
// the paper's Table 1: access latency to L1, L2, local memory and remote
// memory at each hop distance the configured topology reaches.
//
// Usage:
//
//	latency                 # the paper's Origin2000 (remote at 1..3 hops)
//	latency -topo hier64    # a 64-CPU 4-socket hierarchy's ladder
//	latency -topo 4x2x2x4   # any [cube:]LxLx...xC shape spec
package main

import (
	"flag"
	"io"
	"os"

	"upmgo"
	"upmgo/internal/cli"
)

func main() { os.Exit(cli.Exit("latency", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// run is main without the process exit, testable against any streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topo := fs.String("topo", "", "machine shape: a [cube:]LxLx...xC spec (last component = CPUs per node) or preset (origin, hier64, hier128, hier256); empty = the paper's Origin2000")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	return upmgo.WriteTable1Topo(stdout, *topo)
}
