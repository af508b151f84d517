package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"upmgo/internal/nas"
	"upmgo/internal/store"
)

// Cache memoizes completed cells across sweeps, keyed by CellSpec.Key.
// The paper's evaluation overlaps heavily: Figure 1's eight bars per
// benchmark are a subset of Figure 4's twelve, and Table 2 re-reads
// Figure 4's UPMlib cells; one Cache shared across a `sweep -all`
// therefore runs each unique (bench, config) simulation exactly once.
// It is safe for concurrent use, and duplicate in-flight requests
// coalesce onto a single simulation.
type Cache struct {
	mu     sync.Mutex
	cells  flights[Cell]
	hits   uint64
	misses uint64

	// Recorded L2-miss streams (see nas.Stream), keyed by
	// bench + nas.Config.StreamFingerprint. Every placement, engine and
	// steady-state variant of one stream, the canonical cell the
	// recording ran included, replays the single recording.
	streams  flights[*nas.Stream]
	replayed uint64

	// Second level: the on-disk content-addressed result store, when
	// attached with SetStore. Reads go through (RAM, then disk, then
	// simulate) and completed simulations are written behind — after the
	// in-flight waiters are released, off every other cell's critical
	// path. Store failures never fail a cell: a corrupt record re-reads
	// as a miss (the re-simulation's Put repairs it) and a failed write
	// only bumps storeErrs.
	store        *store.Store
	diskHits     uint64
	storePuts    uint64
	storeErrs    uint64
	lastStoreErr error
}

// cellMeta, when passed to cell, receives the serving path's provenance:
// which level satisfied the request and how long the on-disk store probe
// took. Telemetry only — cell's behaviour is identical with a nil meta.
type cellMeta struct {
	// source is one of SourceMemory (RAM or a successful in-flight
	// join), SourceStore (recalled from disk) or SourceSimulated.
	source string
	// storeProbe is the host time spent in store.Get, hit or miss.
	storeProbe time.Duration
	// replayed: the cell replayed its benchmark's miss stream. declined
	// is why the stream could not be replayed ("" when it could, or when
	// the cell had no stream).
	replayed bool
	declined string
	// recording is how the stream this cell recorded compressed; nil
	// unless the cell led the recording.
	recording *nas.Compression
}

// Cell provenance values, shared with exp.CellReport.
const (
	SourceMemory    = "memory"
	SourceStore     = "store"
	SourceSimulated = "simulated"
)

// flights memoizes values by key, computing each at most once per key
// at a time. Guarded by Cache.mu.
type flights[V any] struct {
	done     map[string]V
	inflight map[string]*flight[V]
	led      uint64 // computations started (successful or not)
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

func newFlights[V any]() flights[V] {
	return flights[V]{done: map[string]V{}, inflight: map[string]*flight[V]{}}
}

// do returns the value for key, running lead at most once per key at a
// time: concurrent callers with the same key wait for the first. Errors
// are not cached, and a leader's failure is not inherited by its waiters
// — the leader may have failed only because *its* caller was cancelled,
// which says nothing about a waiter's prospects. A waiter that survives a
// failed flight (its own ctx still live) retries, becoming the new leader
// if nobody beat it to the slot; a waiter whose ctx ends stops waiting.
// The bool reports that the value came from the memo or a successful
// in-flight duplicate rather than from this call's own lead. lead runs
// without mu held, and the flight's waiters are released before do
// returns.
func (fl *flights[V]) do(mu *sync.Mutex, ctx context.Context, key string, lead func() (V, error)) (V, bool, error) {
	var zero V
	for {
		mu.Lock()
		if v, ok := fl.done[key]; ok {
			mu.Unlock()
			return v, true, nil
		}
		if f, ok := fl.inflight[key]; ok {
			mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if f.err == nil {
				return f.v, true, nil
			}
			if err := ctx.Err(); err != nil {
				return zero, false, err
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			// Don't start a computation nobody will wait for.
			mu.Unlock()
			return zero, false, err
		}
		f := &flight[V]{done: make(chan struct{})}
		fl.inflight[key] = f
		fl.led++
		mu.Unlock()

		f.v, f.err = lead()

		mu.Lock()
		delete(fl.inflight, key)
		if f.err == nil {
			fl.done[key] = f.v
		}
		mu.Unlock()
		close(f.done)
		return f.v, false, f.err
	}
}

// NewCache returns an empty cell cache.
func NewCache() *Cache {
	return &Cache{cells: newFlights[Cell](), streams: newFlights[*nas.Stream]()}
}

// CacheStats is a snapshot of memoization traffic.
type CacheStats struct {
	// Hits counts cells served without a new simulation (recalled from
	// RAM, or joined onto one already in flight).
	Hits uint64
	// DiskHits counts cells recalled from the attached result store —
	// simulated by an earlier process, never by this one.
	DiskHits uint64
	// Misses counts cells that ran a fresh simulation: by replaying a
	// miss stream, or from scratch when the cell cannot be memoized
	// (traced, sampled or tweaked) or its recording declined.
	Misses uint64
	// Replayed counts the subset of Misses that replayed a recorded
	// L2-miss stream instead of simulating the caches.
	Replayed uint64
	// Streams counts miss-stream recordings (each shared by every
	// replayed cell with the same stream fingerprint, declined ones
	// included); StreamBytes is the size of the logs held.
	Streams     uint64
	StreamBytes uint64
	// StreamSteps counts the timed steps of the recorded streams;
	// StreamStepsSimulated the ones whose caches were simulated, the
	// rest having been copied once the cache-side state repeated
	// (nas.Compression).
	StreamSteps          uint64
	StreamStepsSimulated uint64
	// Forked and Prefixes are always 0: the runner no longer forks
	// prefix snapshots. They stay for the benchmark harness, which still
	// reads them.
	Forked   uint64
	Prefixes uint64
	// StorePuts counts cells persisted to the store; StoreErrors counts
	// store reads or writes that failed (the cells themselves still
	// succeeded), with StoreErr holding the most recent failure.
	StorePuts   uint64
	StoreErrors uint64
	StoreErr    error
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sb, steps, simulated uint64
	for _, s := range c.streams.done {
		sb += uint64(s.Bytes())
		steps += uint64(s.Compression.Steps)
		simulated += uint64(s.Compression.Simulated())
	}
	return CacheStats{Hits: c.hits, DiskHits: c.diskHits, Misses: c.misses,
		Replayed: c.replayed, Streams: c.streams.led, StreamBytes: sb,
		StreamSteps: steps, StreamStepsSimulated: simulated,
		StorePuts: c.storePuts, StoreErrors: c.storeErrs, StoreErr: c.lastStoreErr}
}

// SetStore attaches an on-disk result store as the cache's second level:
// cells missing from RAM are looked up on disk before simulating, and
// every fresh simulation is persisted, so later processes sharing the
// directory warm-start (`sweep -all -store dir` twice simulates nothing
// the second time). Cross-process identity is the store's contract: a
// recalled Result decodes bit-identical to the one the writing process
// computed. Attach before the first sweep; a nil store detaches.
func (c *Cache) SetStore(s *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = s
}

// Len returns the number of completed cells held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells.done)
}

// cell returns the cached cell for key, running fn at most once per key
// at a time under flights.do's single-flight discipline. The bool
// reports whether the cell was served from the cache (RAM, disk, or a
// successful in-flight duplicate) rather than by this call's own
// simulation.
//
// With a store attached the leader reads through it before simulating —
// an intact record short-circuits fn entirely — and writes behind it
// after: the RAM fill and waiter release happen first, so no other cell
// ever waits on disk I/O. A corrupt record is counted, skipped and
// repaired by the post-simulation write.
func (c *Cache) cell(ctx context.Context, key string, fn func() (Cell, error), meta *cellMeta) (Cell, bool, error) {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	recalled := false
	cell, shared, err := c.cells.do(&c.mu, ctx, key, func() (Cell, error) {
		// Read through the store: a cell another process already
		// simulated is recalled, not recomputed. The disk read happens
		// under the in-flight slot, so concurrent requests for the same
		// key coalesce onto one read exactly as they would onto one
		// simulation.
		if st != nil {
			var t0 time.Time
			if meta != nil {
				t0 = time.Now()
			}
			res, err := st.Get(key)
			if meta != nil {
				meta.storeProbe += time.Since(t0)
			}
			if err == nil {
				recalled = true
				c.mu.Lock()
				c.diskHits++
				c.mu.Unlock()
				if meta != nil {
					meta.source = SourceStore
				}
				bench, _, _ := strings.Cut(key, "\x00")
				return Cell{Bench: bench, Label: res.Label, Result: res}, nil
			} else if !errors.Is(err, store.ErrNotFound) {
				c.noteStoreErr(err)
			}
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		if meta != nil {
			meta.source = SourceSimulated
		}
		return fn()
	})
	if shared {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		if meta != nil {
			// A successful in-flight join is a RAM recall from the
			// waiter's point of view: another worker in this process
			// did the simulating.
			meta.source = SourceMemory
		}
		return cell, true, nil
	}
	// Write behind: waiters are already released; only this cell's own
	// caller pays for the persist, and a failure (disk full, permissions)
	// degrades to an unpersisted cell, not a failed one.
	if err == nil && !recalled && st != nil {
		if err := st.Put(key, cell.Bench, cell.Result); err != nil {
			c.noteStoreErr(err)
		} else {
			c.mu.Lock()
			c.storePuts++
			c.mu.Unlock()
		}
	}
	return cell, recalled, err
}

// noteStoreErr records a non-fatal store failure for Stats.
func (c *Cache) noteStoreErr(err error) {
	c.mu.Lock()
	c.storeErrs++
	c.lastStoreErr = err
	c.mu.Unlock()
}

// stream returns the recorded miss stream for key, recording it with fn
// at most once per key at a time under flights.do's single-flight
// discipline. A stream is immutable, so any number of cells may replay
// it concurrently.
func (c *Cache) stream(ctx context.Context, key string, fn func() (*nas.Stream, error)) (*nas.Stream, error) {
	v, _, err := c.streams.do(&c.mu, ctx, key, fn)
	return v, err
}

// noteScratch records one unmemoizable cell simulated from scratch: a
// fresh simulation the Cache never saw, counted so Misses covers it.
func (c *Cache) noteScratch() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// noteReplay records one cell simulated by replaying a miss stream.
func (c *Cache) noteReplay() {
	c.mu.Lock()
	c.replayed++
	c.mu.Unlock()
}
