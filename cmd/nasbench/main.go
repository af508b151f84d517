// Command nasbench runs one NAS benchmark reproduction on the simulated
// Origin2000 under a chosen placement scheme and migration engine, and
// prints the timing and migration statistics.
//
// Examples:
//
//	nasbench -bench BT -class W -placement wc -upm upmlib
//	nasbench -bench SP -placement ft -upm recrep -iters 30
//	nasbench -bench FT -class W -placement rand -kmig
//	nasbench -bench SP -class W -steady -v
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"upmgo"
	"upmgo/internal/cli"
)

func main() { os.Exit(cli.Exit("nasbench", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// run is main without the process exit, testable against any streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := upmgo.NASConfig{Class: upmgo.ClassW, Placement: upmgo.FirstTouch}
	bench := cli.CellFlags(fs, &cfg)
	fs.BoolVar(&cfg.KernelMig, "kmig", false, "enable the IRIX-style kernel migration engine")
	fs.IntVar(&cfg.ComputeScale, "scale", 1, "repeat each phase body N times (the paper's Figure 6 scaling)")
	fs.Uint64Var(&cfg.Seed, "seed", 42, "workload seed")
	fs.IntVar(&cfg.Threads, "threads", 0, "team size (0 = all simulated CPUs)")
	steady := fs.Bool("steady", false, "detect the steady state and fast-forward the remaining iterations")
	verbose := fs.Bool("v", false, "print per-iteration times")
	if err := fs.Parse(args); err != nil {
		return cli.FlagError{Err: err}
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	cfg.SkipVerify = cfg.ComputeScale > 1
	cfg.SteadyState, cfg.Extrapolate = *steady, *steady

	r, err := upmgo.RunNAS(strings.ToUpper(*bench), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s Class %s  %s  (%d threads)\n", r.Kernel, r.Class, r.Label, teamSize(cfg))
	fmt.Fprintf(stdout, "  main loop      %.4f virtual s over %d iterations\n", r.Seconds(), len(r.IterPS))
	fmt.Fprintf(stdout, "  cold start     %.4f virtual s\n", float64(r.ColdPS)/1e12)
	fmt.Fprintf(stdout, "  remote share   %.1f%% of memory accesses\n", 100*r.Mach.RemoteRatio())
	fmt.Fprintf(stdout, "  page faults    %d   kernel migrations %d\n", r.Mach.Faults, r.KmigMoves)
	if cfg.UPM != upmgo.UPMOff {
		fmt.Fprintf(stdout, "  UPMlib         %d migrations (%d in the first invocation), %d replays, %d undos, %d frozen\n",
			r.UPM.Migrations, r.UPM.FirstInvocation, r.UPM.ReplayMigrations, r.UPM.UndoMigrations, r.UPM.Frozen)
		fmt.Fprintf(stdout, "  UPMlib cost    %.4f virtual s on the critical path\n", float64(r.UPM.OverheadPS)/1e12)
	}
	if r.SteadyAt != 0 {
		fmt.Fprintf(stdout, "  steady state   detected at iteration %d; %d iterations extrapolated\n",
			r.SteadyAt, r.ExtrapolatedIters)
	} else if *steady {
		// The typed diagnosis replaces the old guesswork string: the
		// detector reports what actually blocked it (reason + evidence).
		if w := r.FastPath.WhyNot; w != nil {
			fmt.Fprintf(stdout, "  steady state   not detected [%s]: %s\n", w.Reason, w)
		} else {
			fmt.Fprintf(stdout, "  steady state   not detected\n")
		}
	}
	if err := cli.Verdict(r); err != nil {
		fmt.Fprintf(stdout, "  VERIFY FAILED  %v\n", r.VerifyErr)
		return err
	}
	if r.Verified {
		fmt.Fprintf(stdout, "  verified       ok\n")
	}
	if *verbose {
		for i, ps := range r.IterPS {
			fmt.Fprintf(stdout, "  iter %3d  %.6f s  (phase %.6f s)\n", i+1, float64(ps)/1e12, float64(r.PhasePS[i])/1e12)
		}
	}
	return nil
}

func teamSize(cfg upmgo.NASConfig) int {
	if cfg.Threads != 0 {
		return cfg.Threads
	}
	mc := upmgo.DefaultMachineConfig()
	cfg.Class.MachineTweak(&mc)
	return mc.Nodes * mc.CPUsPerNode
}
