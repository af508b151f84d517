package exp

import (
	"context"
	"errors"
	"sync"
	"time"

	"upmgo/internal/store"
)

// Cache memoizes completed cells within and across batches, keyed by
// CellSpec.Key. The paper's evaluation overlaps heavily: Figure 1's
// eight bars per benchmark are a subset of Figure 4's twelve, and Table
// 2 re-reads Figure 4's UPMlib cells; one Cache under a `sweep -all`
// therefore runs each unique (bench, config) simulation exactly once.
// It is safe for concurrent use, and duplicate in-flight requests
// coalesce onto a single simulation. It holds results only: the miss
// streams those results were replayed from belong to the batch that
// recorded them (see Runner.Cells).
type Cache struct {
	cells flights[string, Cell] // keyed by CellSpec.Key

	mu     sync.Mutex // guards the counters and the store below
	hits   uint64
	misses uint64

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

// Cell provenance values, shared with exp.CellReport.
const (
	SourceMemory    = "memory"
	SourceStore     = "store"
	SourceSimulated = "simulated"
)

// slot is one goroutine's claim on a batch's job slots (Runner.Jobs). A
// cell's goroutine holds one while it simulates and gives it back while
// it waits on an in-flight duplicate or on its stream's verdict, work
// that may need a slot itself. A slot belongs to one goroutine; the nil
// slot holds nothing and gives nothing back.
type slot struct {
	sem  chan struct{}
	held bool
}

// acquire takes a slot, unless s already holds one, or returns ctx.Err()
// when ctx ends first.
func (s *slot) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil || s == nil || s.held {
		return err
	}
	select {
	case s.sem <- struct{}{}:
		s.held = true
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release gives the slot back, if s holds one.
func (s *slot) release() {
	if s != nil && s.held {
		<-s.sem
		s.held = false
	}
}

// flights memoizes values by key, computing each at most once per key
// at a time. The zero value is empty and ready for concurrent use.
type flights[K comparable, V any] struct {
	mu       sync.Mutex
	done     map[K]V
	inflight map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
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
// without fl.mu held, and the flight's waiters are released before do
// returns. A waiter gives sl back before it waits, and a leader takes it
// (again) before it leads.
func (fl *flights[K, V]) do(ctx context.Context, key K, sl *slot, lead func() (V, error)) (V, bool, error) {
	var zero V
	for {
		fl.mu.Lock()
		if v, ok := fl.done[key]; ok {
			fl.mu.Unlock()
			return v, true, nil
		}
		if f, ok := fl.inflight[key]; ok {
			fl.mu.Unlock()
			sl.release()
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
			fl.mu.Unlock()
			return zero, false, err
		}
		if fl.inflight == nil {
			fl.done, fl.inflight = map[K]V{}, map[K]*flight[V]{}
		}
		f := &flight[V]{done: make(chan struct{})}
		fl.inflight[key] = f
		fl.mu.Unlock()

		if f.err = sl.acquire(ctx); f.err == nil {
			f.v, f.err = lead()
		}

		fl.mu.Lock()
		delete(fl.inflight, key)
		if f.err == nil {
			fl.done[key] = f.v
		}
		fl.mu.Unlock()
		close(f.done)
		return f.v, false, f.err
	}
}

// NewCache returns an empty cell cache.
func NewCache() *Cache {
	return &Cache{}
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
	// (traced, sampled or tweaked) or its recording declined. Which of
	// the two a cell did, and which cells recorded the streams, its
	// CellReport says.
	Misses uint64
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
	return CacheStats{Hits: c.hits, DiskHits: c.diskHits, Misses: c.misses,
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
	c.cells.mu.Lock()
	defer c.cells.mu.Unlock()
	return len(c.cells.done)
}

// cell returns bench's cached cell for key, running fn at most once per key
// at a time under flights.do's single-flight discipline, sl held while
// fn runs and given back while the call waits on a duplicate. It writes
// the serving path into rep: Source says which level satisfied the
// request (SourceMemory for RAM or a successful in-flight duplicate,
// SourceStore, or SourceSimulated for this call's own simulation), and
// Stages.StoreProbe the host time spent in store.Get, hit or miss.
//
// With a store attached the leader reads through it before simulating —
// an intact record short-circuits fn entirely — and writes behind it
// after: the RAM fill and waiter release happen first, so no other cell
// ever waits on disk I/O. A corrupt record is counted, skipped and
// repaired by the post-simulation write.
func (c *Cache) cell(ctx context.Context, bench, key string, sl *slot, fn func() (Cell, error), rep *CellReport) (Cell, error) {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	cell, shared, err := c.cells.do(ctx, key, sl, func() (Cell, error) {
		// Read through the store: a cell another process already
		// simulated is recalled, not recomputed. The disk read happens
		// under the in-flight slot, so concurrent requests for the same
		// key coalesce onto one read exactly as they would onto one
		// simulation.
		if st != nil {
			t0 := time.Now()
			res, err := st.Get(key)
			rep.Stages.StoreProbe += time.Since(t0).Seconds()
			if err == nil {
				c.mu.Lock()
				c.diskHits++
				c.mu.Unlock()
				rep.Source = SourceStore
				return Cell{Bench: bench, Label: res.Label, Result: res}, nil
			} else if !errors.Is(err, store.ErrNotFound) {
				c.noteStoreErr(err)
			}
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		rep.Source = SourceSimulated
		return fn()
	})
	if shared {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		// A successful in-flight join is a RAM recall from the waiter's
		// point of view: another worker in this process did the
		// simulating.
		rep.Source = SourceMemory
		return cell, nil
	}
	// Write behind: waiters are already released; only this cell's own
	// caller pays for the persist, and a failure (disk full, permissions)
	// degrades to an unpersisted cell, not a failed one.
	if err == nil && rep.Source == SourceSimulated && st != nil {
		if err := st.Put(key, cell.Bench, cell.Result); err != nil {
			c.noteStoreErr(err)
		} else {
			c.mu.Lock()
			c.storePuts++
			c.mu.Unlock()
		}
	}
	return cell, err
}

// noteStoreErr records a non-fatal store failure for Stats.
func (c *Cache) noteStoreErr(err error) {
	c.mu.Lock()
	c.storeErrs++
	c.lastStoreErr = err
	c.mu.Unlock()
}

// noteScratch records one unmemoizable cell simulated from scratch: a
// fresh simulation the Cache never saw, counted so Misses covers it.
func (c *Cache) noteScratch() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}
