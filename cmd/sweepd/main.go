// Command sweepd serves the paper's sweeps as a long-running job
// service: submit a sweep request, poll its progress, and fetch
// individual cells out of the shared content-addressed result store —
// the same store `sweep -store` reads and writes, so a sweep the daemon
// ran once is a warm start for every later client and process.
//
// The HTTP API is versioned under /v1:
//
//	POST /v1/jobs            submit a sweep (body: {"kind": "figure1", "options": {...}})
//	GET  /v1/jobs            list jobs, oldest first
//	GET  /v1/jobs/{id}       one job's status, progress and (when done) result
//	GET  /v1/cells/{address} one cell's store record, served verbatim
//	GET  /metrics            Prometheus text (upmgo_sweep_cells_*, upmgo_sweepd_jobs)
//	GET  /debug/pprof/       host profiles; /debug/vars for expvar
//
// Jobs run one at a time off a bounded queue (each job's cells simulate
// concurrently, -jobs wide); a full queue answers 503 and a job body over
// 1 MiB answers 413. The daemon remembers the 64 most recent finished
// jobs; an older finished job's status and events answer 404, while its
// cells stay in the store. SIGTERM/SIGINT drains gracefully: the listener
// stops, the running job finishes, still-queued jobs fail with "server
// draining", and the process exits.
//
// Examples:
//
//	sweepd -store results/ -addr localhost:8080
//	curl -d '{"kind":"figure1","options":{"class":"S","threads":1}}' localhost:8080/v1/jobs
//	curl -d '{"kind":"figure4","options":{"class":"W","topo":"hier64"}}' localhost:8080/v1/jobs
//	curl -d '{"kind":"toposcale","options":{"class":"W","steady":true}}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/job-1
//	sweepd -store results/ -check     # offline admin: verify every record
//	sweepd -store results/ -gc 64e6   # drop corrupt/stale, evict to 64 MB
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"upmgo"
	"upmgo/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(cli.Exit("sweepd", err, os.Stderr))
}

// serving is a test seam: called with the bound listen address once the
// server is accepting, so tests can drive a real listener on port 0.
var serving = func(addr string) {}

// run is main without the process exit: it parses args, then either
// performs one offline store-admin action or serves the job API until
// ctx is cancelled (the signal path) and the drain completes.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address for the job API")
	storeDir := fs.String("store", "", "content-addressed result store directory (shared with `sweep -store`; enables /v1/cells and cross-process warm starts)")
	jobs := fs.Int("jobs", 0, "concurrent cell simulations per job (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 16, "maximum queued jobs before POST /v1/jobs answers 503")
	drain := fs.Duration("drain", time.Minute, "graceful-shutdown grace period for the running job")
	logFormat := fs.String("log", "text", "structured log format: text or json (slog to stderr)")
	scan := fs.Bool("scan", false, "offline admin: list every record in -store and exit")
	check := fs.Bool("check", false, "offline admin: verify every record in -store and exit (non-zero on corruption)")
	gc := fs.Int64("gc", -1, "offline admin: drop corrupt/stale records, evict oldest intact ones down to this byte budget (0 = no size cap), and exit")
	if err := fs.Parse(args); err != nil {
		return cli.FlagError{Err: err}
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	logger, err := newLogger(*logFormat, stderr)
	if err != nil {
		return err
	}

	admin := *scan || *check || *gc >= 0
	if admin && *storeDir == "" {
		return errors.New("-scan/-check/-gc need -store")
	}

	var st *upmgo.ResultStore
	if *storeDir != "" {
		var err error
		if st, err = upmgo.OpenResultStore(*storeDir); err != nil {
			return fmt.Errorf("-store: %w", err)
		}
	}
	if admin {
		return runAdmin(st, *scan, *check, *gc, stdout)
	}

	if *queue < 1 {
		return errors.New("-queue must be at least 1")
	}
	s := newServer(*jobs, *queue, st, logger)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	srv := &http.Server{Handler: s.handler()}

	workCtx, stopWork := context.WithCancel(context.Background())
	go s.work(workCtx)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(),
		"endpoints", "/v1/jobs /v1/jobs/{id}/events /v1/cells /metrics")
	serving(ln.Addr().String())

	select {
	case err := <-errc:
		stopWork()
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight HTTP exchanges and the running
	// job finish (still-queued jobs fail fast), then exit.
	logger.Info("draining", "grace", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(dctx)
	stopWork()
	select {
	case <-s.done:
	case <-dctx.Done():
		return fmt.Errorf("drain: running job did not finish within %s", *drain)
	}
	logger.Info("drained")
	return shutdownErr
}

// newLogger builds the process logger: slog to w in the chosen format.
// The "drained" message sweepd_smoke.sh greps for appears as msg=drained
// (text) or "msg":"drained" (json) — greppable either way.
func newLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("-log: unknown format %q (want text or json)", format)
	}
}

// runAdmin performs one offline store maintenance pass.
func runAdmin(st *upmgo.ResultStore, scan, check bool, gc int64, stdout io.Writer) error {
	switch {
	case scan:
		metas, err := st.Scan()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-16s %-6s %-8s %-6s %10s %s\n", "address", "bench", "engine", "class", "bytes", "state")
		for _, m := range metas {
			state := "ok"
			if m.Corrupt {
				state = "corrupt"
			} else if m.Stale {
				state = "stale"
			}
			fmt.Fprintf(stdout, "%-16s %-6s %-8s %-6s %10d %s\n",
				m.Address[:16], m.Bench, m.Engine, m.Class, m.Bytes, state)
		}
		fmt.Fprintf(stdout, "%d records\n", len(metas))
		return nil
	case check:
		ck, err := st.Check()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d intact, %d stale, %d corrupt (%d bytes)\n",
			ck.Records, ck.Stale, ck.Corrupt, ck.Bytes)
		if ck.Corrupt > 0 {
			return fmt.Errorf("%d corrupt records (a re-run with -store repairs them, or -gc drops them)", ck.Corrupt)
		}
		return nil
	default:
		stats, err := st.GC(gc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "removed %d records (%d bytes), kept %d (%d bytes)\n",
			stats.Removed, stats.RemovedBytes, stats.Kept, stats.KeptBytes)
		return nil
	}
}
