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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"upmgo"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main without the process exit: it runs the command and reports
// a failure on stderr once, returning the exit status.
func cli(args []string, stdout, stderr io.Writer) int {
	err := run(args, stdout, stderr)
	if err == nil {
		return 0
	}
	if !errors.As(err, new(flagError)) {
		fmt.Fprintf(stderr, "latency: %v\n", err)
	}
	return 1
}

// flagError is a flag error the FlagSet has already printed, with the
// usage, so cli does not print it again.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// run is main without the process exit, testable against any streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topo := fs.String("topo", "", "machine shape: a [cube:]LxLx...xC spec (last component = CPUs per node) or preset (origin, hier64, hier128, hier256); empty = the paper's Origin2000")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	return upmgo.WriteTable1Topo(stdout, *topo)
}
