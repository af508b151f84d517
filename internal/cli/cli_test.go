package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/vm"
)

// TestExit pins the exit policy every command shares: the status for
// each kind of run error, and what Exit itself prints.
func TestExit(t *testing.T) {
	errPlain := errors.New("boom")
	for _, tc := range []struct {
		name   string
		err    error
		code   int
		stderr string
	}{
		{"success", nil, 0, ""},
		{"help", FlagError{Err: flag.ErrHelp}, 2, ""},
		{"nothing selected", fmt.Errorf("nothing selected (%w)", flag.ErrHelp), 2, ""},
		{"flag error", FlagError{Err: errors.New("flag provided but not defined: -nope")}, 1, ""},
		{"wrapped flag error", fmt.Errorf("parse: %w", FlagError{Err: errPlain}), 1, ""},
		{"plain error", errPlain, 1, "cmd: boom\n"},
	} {
		var errw bytes.Buffer
		if code := Exit("cmd", tc.err, &errw); code != tc.code {
			t.Errorf("%s: Exit = %d, want %d", tc.name, code, tc.code)
		}
		if errw.String() != tc.stderr {
			t.Errorf("%s: Exit printed %q, want %q", tc.name, errw.String(), tc.stderr)
		}
	}
}

// TestFlagErrorUnwraps: a FlagError reads as the error it wraps.
func TestFlagErrorUnwraps(t *testing.T) {
	e := FlagError{Err: flag.ErrHelp}
	if e.Error() != flag.ErrHelp.Error() || !errors.Is(e, flag.ErrHelp) {
		t.Errorf("FlagError %q does not read as flag.ErrHelp", e)
	}
}

// TestParse: Parse returns a flag error as a FlagError, and a stray
// argument as an error after printing the usage, which the FlagSet
// prints with a flag error too.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		flagErr bool
		msg     string
	}{
		{[]string{"-n", "3"}, false, ""},
		{[]string{"-nope"}, true, "flag provided but not defined: -nope"},
		{[]string{"-n", "3", "a", "b"}, false, "unexpected arguments: a b"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var errw bytes.Buffer
		fs.SetOutput(&errw)
		fs.Int("n", 0, "a number")
		err := Parse(fs, tc.args)
		if tc.msg == "" {
			if err != nil {
				t.Errorf("%v: %v", tc.args, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.msg || errors.As(err, new(FlagError)) != tc.flagErr {
			t.Errorf("%v: error %v, want %q (flag error %v)", tc.args, err, tc.msg, tc.flagErr)
		}
		if !strings.Contains(errw.String(), "Usage of t:\n") {
			t.Errorf("%v: printed %q, want the usage", tc.args, errw.String())
		}
	}
}

// TestCellFlags: the five cell flags default to what the config holds,
// parse the config types' own spellings, and -bench's help names every
// benchmark.
func TestCellFlags(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassW, Placement: vm.WorstCase, UPM: nas.UPMDistribute, Iterations: 4}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var help bytes.Buffer
	fs.SetOutput(&help)
	bench := CellFlags(fs, &cfg)
	for name, want := range map[string]string{"bench": "BT", "class": "W", "placement": "wc", "upm": "upmlib", "iters": "4"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s defaults to %q, want %q", name, got, want)
		}
	}
	fs.PrintDefaults()
	for _, b := range []string{"BT", "SP", "CG", "MG", "FT", "LU", "EP", "IS"} {
		if !strings.Contains(help.String(), b) {
			t.Errorf("help lacks %s:\n%s", b, help.String())
		}
	}
	if err := fs.Parse([]string{"-bench", "ep", "-class", "S", "-placement", "rr", "-upm", "recrep", "-iters", "2"}); err != nil {
		t.Fatal(err)
	}
	if *bench != "ep" || cfg.Class != nas.ClassS || cfg.Placement != vm.RoundRobin ||
		cfg.UPM != nas.UPMRecRep || cfg.Iterations != 2 {
		t.Errorf("parsed -bench %q, class %v, placement %v, upm %v, iters %d; want ep, S, rr, recrep, 2",
			*bench, cfg.Class, cfg.Placement, cfg.UPM, cfg.Iterations)
	}
}

// TestVerdict: a failed verification fails the command, naming the
// benchmark and wrapping the kernel's own error.
func TestVerdict(t *testing.T) {
	if err := Verdict(nas.Result{Kernel: "BT", Verified: true}); err != nil {
		t.Errorf("verified run: %v", err)
	}
	bad := errors.New("residual did not decrease")
	err := Verdict(nas.Result{Kernel: "BT", VerifyErr: bad})
	if !errors.Is(err, bad) || err.Error() != "BT failed verification: residual did not decrease" {
		t.Errorf("failed run: %v", err)
	}
}
