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
	mu       sync.Mutex
	cells    map[string]Cell
	inflight map[string]*inflightCell
	hits     uint64
	misses   uint64

	// Recorded L2-miss streams (see nas.Stream), keyed by
	// bench + nas.Config.StreamFingerprint. Every placement, engine and
	// steady-state variant of one stream replays the single recording.
	streams  flights
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

type inflightCell struct {
	done chan struct{}
	cell Cell
	err  error
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
}

// Cell provenance values, shared with exp.CellReport.
const (
	SourceMemory    = "memory"
	SourceStore     = "store"
	SourceSimulated = "simulated"
)

// flights memoizes miss streams, each recorded at most once per key at
// a time. Guarded by Cache.mu.
type flights struct {
	done     map[string]*nas.Stream
	inflight map[string]*flight
	built    uint64 // recordings made (successfully or not)
}

type flight struct {
	done chan struct{}
	v    *nas.Stream
	err  error
}

// NewCache returns an empty cell cache.
func NewCache() *Cache {
	return &Cache{
		cells:    map[string]Cell{},
		inflight: map[string]*inflightCell{},
		streams:  flights{done: map[string]*nas.Stream{}, inflight: map[string]*flight{}},
	}
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
	var sb uint64
	for _, s := range c.streams.done {
		sb += uint64(s.Bytes())
	}
	return CacheStats{Hits: c.hits, DiskHits: c.diskHits, Misses: c.misses,
		Replayed: c.replayed, Streams: c.streams.built, StreamBytes: sb,
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
	return len(c.cells)
}

// cell returns the cached cell for key, running fn at most once per key
// at a time: concurrent callers with the same key wait for the first.
// Errors are not cached, and a leader's failure is not inherited by its
// waiters — the leader may have failed only because *its* caller was
// cancelled, which says nothing about a waiter's prospects. A waiter that
// survives a failed flight (its own ctx still live) retries, becoming the
// new leader if nobody beat it to the slot. The bool reports whether the
// cell was served from the cache (RAM, disk, or a successful in-flight
// duplicate) rather than by this call's own simulation.
//
// With a store attached the leader reads through it before simulating —
// an intact record short-circuits fn entirely — and writes behind it
// after: the RAM fill and waiter release happen first, so no other cell
// ever waits on disk I/O. A corrupt record is counted, skipped and
// repaired by the post-simulation write.
func (c *Cache) cell(ctx context.Context, key string, fn func() (Cell, error), meta *cellMeta) (Cell, bool, error) {
	for {
		c.mu.Lock()
		if cell, ok := c.cells[key]; ok {
			c.hits++
			c.mu.Unlock()
			if meta != nil {
				meta.source = SourceMemory
			}
			return cell, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Cell{}, false, ctx.Err()
			}
			if f.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				if meta != nil {
					// A successful in-flight join is a RAM recall from
					// the waiter's point of view: another worker in this
					// process did the simulating.
					meta.source = SourceMemory
				}
				return f.cell, true, nil
			}
			if err := ctx.Err(); err != nil {
				return Cell{}, false, err
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			// Don't start a simulation nobody will wait for.
			c.mu.Unlock()
			return Cell{}, false, err
		}
		f := &inflightCell{done: make(chan struct{})}
		c.inflight[key] = f
		st := c.store
		c.mu.Unlock()

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
				bench, _, _ := strings.Cut(key, "\x00")
				f.cell = Cell{Bench: bench, Label: res.Label, Result: res}
				c.mu.Lock()
				c.cells[key] = f.cell
				c.diskHits++
				delete(c.inflight, key)
				c.mu.Unlock()
				close(f.done)
				if meta != nil {
					meta.source = SourceStore
				}
				return f.cell, true, nil
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

		f.cell, f.err = fn()

		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.cells[key] = f.cell
		}
		c.mu.Unlock()
		close(f.done)

		// Write behind: waiters are already released; only this cell's
		// own caller pays for the persist, and a failure (disk full,
		// permissions) degrades to an unpersisted cell, not a failed one.
		if f.err == nil && st != nil {
			if err := st.Put(key, f.cell.Bench, f.cell.Result); err != nil {
				c.noteStoreErr(err)
			} else {
				c.mu.Lock()
				c.storePuts++
				c.mu.Unlock()
			}
		}
		return f.cell, false, f.err
	}
}

// noteStoreErr records a non-fatal store failure for Stats.
func (c *Cache) noteStoreErr(err error) {
	c.mu.Lock()
	c.storeErrs++
	c.lastStoreErr = err
	c.mu.Unlock()
}

// stream returns the recorded miss stream for key, recording it with fn
// at most once per key at a time. A stream is immutable, so any number of
// cells may replay it concurrently. The single-flight discipline is
// cell's: errors are not cached, a leader's failure is not inherited, a
// surviving waiter retries as the new leader, and a waiter whose ctx ends
// stops waiting.
func (c *Cache) stream(ctx context.Context, key string, fn func() (*nas.Stream, error)) (*nas.Stream, error) {
	fl := &c.streams
	for {
		c.mu.Lock()
		if v, ok := fl.done[key]; ok {
			c.mu.Unlock()
			return v, nil
		}
		if f, ok := fl.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err == nil {
				return f.v, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		f := &flight{done: make(chan struct{})}
		fl.inflight[key] = f
		fl.built++
		c.mu.Unlock()

		f.v, f.err = fn()

		c.mu.Lock()
		delete(fl.inflight, key)
		if f.err == nil {
			fl.done[key] = f.v
		}
		c.mu.Unlock()
		close(f.done)
		return f.v, f.err
	}
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
