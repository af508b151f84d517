// Package cli is the entry harness every command runs through: one exit
// policy, one argument check, the cell flags the single-cell commands
// share, and their verification policy.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"upmgo/internal/nas"
)

// FlagError is a flag error the FlagSet has already printed, with the
// usage, so Exit does not print it again.
type FlagError struct{ Err error }

func (e FlagError) Error() string { return e.Err.Error() }
func (e FlagError) Unwrap() error { return e.Err }

// Exit turns a command's run error into its exit status: 0 on success,
// 2 for flag.ErrHelp (the -h flag, or an invocation that selected
// nothing, which a command reports by wrapping it), 1 for any other
// error. An error the FlagSet has not printed is printed once, as
// "name: err".
func Exit(name string, err error, stderr io.Writer) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 2
	case !errors.As(err, new(FlagError)):
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	return 1
}

// Parse parses args into fs and rejects any argument left over: it
// prints fs's usage before it returns that error, as fs prints it with
// a flag error, so every command answers both with its usage.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return FlagError{Err: err}
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	return nil
}

// CellFlags registers on fs the flags every single-cell command takes:
// -class, -placement, -upm and -iters over cfg, each defaulting to the
// value cfg holds, and -bench, whose value it returns.
func CellFlags(fs *flag.FlagSet, cfg *nas.Config) *string {
	fs.TextVar(&cfg.Class, "class", cfg.Class, "problem class: S, W or A")
	fs.TextVar(&cfg.Placement, "placement", cfg.Placement, "initial page placement: ft, rr, rand or wc")
	fs.TextVar(&cfg.UPM, "upm", cfg.UPM, "UPMlib mode: off, upmlib (data distribution) or recrep (record-replay)")
	fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "main-loop iterations (0 = class default)")
	return fs.String("bench", "BT", "benchmark: BT, SP, CG, MG or FT, or the extensions LU, EP and IS")
}

// Verdict is the single-cell commands' verification policy: a run whose
// verification failed fails the command, naming the benchmark.
func Verdict(r nas.Result) error {
	if r.VerifyErr == nil {
		return nil
	}
	return fmt.Errorf("%s failed verification: %w", r.Kernel, r.VerifyErr)
}
