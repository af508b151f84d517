// Package store persists completed sweep cells on disk, content-addressed
// by their memoization key, so a sweep warm-starts across processes: the
// cells PRs 2–6 made cheap to recompute (single-flight memoization, prefix
// forking, steady-state fast-forward) become free to recall forever.
//
// A record is one JSON file named <address>.json, where the address is the
// hex SHA-256 of the cell's memo key (bench + "\x00" + nas.Config
// fingerprint). Each record carries a schema version, provenance (engine
// label, class, simulator code version), the SHA-256 of its payload and
// the payload itself — the full nas.Result, whose fields are all integers
// or strings, so the JSON round-trip is exact and a decoded Result is
// bit-identical to the one encoded.
//
// Concurrency protocol: records are written to a unique temp file in the
// store directory and atomically renamed into place. Readers therefore
// never observe a partial record, and any number of processes (sweep CLIs,
// sweepd servers) may share one directory without locks — two writers
// racing on the same address rename equivalent records over each other
// (same key ⇒ same simulation ⇒ same bytes, at any team width, since
// simulation is deterministic in virtual time), which is the
// single-flight-by-rename discipline. There is no read-modify-write
// anywhere: corruption can only come from outside (truncation, bit rot),
// and Get detects it by payload hash and re-reports it as ErrCorrupt so
// callers re-simulate instead of serving damaged cells.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"upmgo/internal/nas"
)

// SchemaVersion is the record format version. Bump it when the record
// envelope changes shape; readers treat records with a different schema as
// absent (stale), never as corrupt.
const SchemaVersion = 1

// CodeVersion names the simulator revision whose results this build
// produces. Bump it whenever a change alters simulated numbers (a latency
// model tweak, a new charging rule): stale records then read as misses and
// are re-simulated and overwritten, rather than serving another revision's
// cells as this one's.
const CodeVersion = "upmgo-sim-3"

// ErrNotFound reports a key with no (current) record: never written,
// written by a different schema or code version, or evicted. Callers match
// it with errors.Is and fall back to simulation.
var ErrNotFound = errors.New("store: cell not found")

// ErrCorrupt reports a record that exists but fails its integrity checks:
// unparseable JSON (truncation), a payload that no longer matches its
// recorded SHA-256 (bit rot), or a key mismatch (hash collision or
// tampering). Callers match it with errors.Is, re-simulate, and overwrite.
var ErrCorrupt = errors.New("store: corrupt record")

// Address returns the content address of a memo key: the hex SHA-256 the
// record file is named by and the /v1/cells/{fingerprint} endpoint of
// cmd/sweepd looks up.
func Address(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// ValidAddress reports whether addr has the shape Address produces: 64
// lower-case hex digits. ReadRecord rejects anything else as ErrNotFound
// before touching the filesystem, so an address taken straight off a URL
// path (cmd/sweepd's /v1/cells/{address}) can never name a file outside
// the store.
func ValidAddress(addr string) bool {
	if len(addr) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Provenance records where a cell's numbers came from.
type Provenance struct {
	// Engine is the cell's figure label ("rr-upmlib"), naming placement
	// and migration engine.
	Engine string `json:"engine"`
	// Class is the NAS problem class letter.
	Class string `json:"class"`
	// CodeVersion is the simulator revision that produced the payload.
	CodeVersion string `json:"code_version"`
}

// Record is the on-disk envelope of one cell.
type Record struct {
	Schema        int             `json:"schema"`
	Key           string          `json:"key"` // full memo key: bench + "\x00" + fingerprint
	Bench         string          `json:"bench"`
	Provenance    Provenance      `json:"provenance"`
	PayloadSHA256 string          `json:"payload_sha256"`
	Payload       json.RawMessage `json:"payload"` // the nas.Result
}

// Store is one result directory. The zero value is unusable; Open it.
// A Store is safe for concurrent use by any number of goroutines and
// coexists with other processes on the same directory (see the package
// comment for the protocol).
type Store struct {
	dir string
}

// Open creates the directory if needed and probes that it is writable, so
// a sweep fails before simulating rather than when its first cell tries to
// persist.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: directory %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// EncodeRecord builds the canonical record bytes for one cell — exactly
// what Put writes and what cmd/sweepd serves for a cell held only in RAM,
// so a fetched cell is byte-identical whether it came from disk or from
// the in-process cache.
func EncodeRecord(key, bench string, res nas.Result) ([]byte, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("store: encode payload: %w", err)
	}
	sum := sha256.Sum256(payload)
	rec := Record{
		Schema: SchemaVersion,
		Key:    key,
		Bench:  bench,
		Provenance: Provenance{
			Engine:      res.Label,
			Class:       res.Class.String(),
			CodeVersion: CodeVersion,
		},
		PayloadSHA256: hex.EncodeToString(sum[:]),
		Payload:       payload,
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	return append(blob, '\n'), nil
}

// Put persists one verified cell, atomically: the record lands under its
// content address via write-temp-then-rename, so concurrent readers and
// writers (in this or any other process) never see a partial file.
func (s *Store) Put(key, bench string, res nas.Result) error {
	blob, err := EncodeRecord(key, bench, res)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(Address(key))); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get recalls the cell stored under key. It returns ErrNotFound when no
// current record exists (missing, stale schema or code version) and
// ErrCorrupt when a record exists but fails integrity: the caller should
// re-simulate either way, and on the corrupt path the next Put repairs the
// store by overwriting the damaged record.
func (s *Store) Get(key string) (nas.Result, error) {
	rec, _, err := s.readRecord(Address(key))
	if err != nil {
		return nas.Result{}, err
	}
	if rec.Key != key {
		return nas.Result{}, fmt.Errorf("%w: %s holds key %q, want %q",
			ErrCorrupt, Address(key)[:12], rec.Key, key)
	}
	var res nas.Result
	if err := json.Unmarshal(rec.Payload, &res); err != nil {
		return nas.Result{}, fmt.Errorf("%w: %s payload: %v", ErrCorrupt, Address(key)[:12], err)
	}
	return res, nil
}

// ReadRecord returns the verified raw record bytes for a content address —
// the body cmd/sweepd's GET /v1/cells/{fingerprint} serves. The bytes are
// exactly what Put wrote (and EncodeRecord produces), so clients can diff
// them against locally computed records. The file is read once, so the
// bytes served are the bytes verified. Addresses that are not 64 hex
// digits read as ErrNotFound without touching the filesystem.
func (s *Store) ReadRecord(addr string) ([]byte, error) {
	if !ValidAddress(addr) {
		return nil, fmt.Errorf("%w (malformed address %q)", ErrNotFound, clip(addr, 16))
	}
	_, blob, err := s.readRecord(addr)
	return blob, err
}

// DecodeRecord parses and integrity-checks one record's raw bytes — the
// pure half of readRecord, shared with the fuzz harness. It distinguishes
// the store's two failure classes exactly as Get does: damage (truncated
// or non-JSON bytes, a payload that fails its recorded SHA-256) wraps
// ErrCorrupt; a well-formed record from another schema or simulator
// revision wraps ErrNotFound, because such a record is absent, not
// damaged — the next Put overwrites it with this revision's cell.
func DecodeRecord(blob []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rec.Schema != SchemaVersion || rec.Provenance.CodeVersion != CodeVersion {
		return Record{}, fmt.Errorf("%w (stale: schema %d, code %q)",
			ErrNotFound, rec.Schema, clip(rec.Provenance.CodeVersion, 40))
	}
	sum := sha256.Sum256(rec.Payload)
	if hex.EncodeToString(sum[:]) != rec.PayloadSHA256 {
		return Record{}, fmt.Errorf("%w: payload hash mismatch", ErrCorrupt)
	}
	return rec, nil
}

// readRecord loads and integrity-checks one record by address: parseable,
// current schema and code version, payload hash intact. It returns the
// record and the bytes it was decoded from, read once. A missing file is
// ErrNotFound itself, unwrapped; a stale record wraps it.
func (s *Store) readRecord(addr string) (Record, []byte, error) {
	blob, err := os.ReadFile(s.path(addr))
	if err != nil {
		if os.IsNotExist(err) {
			return Record{}, nil, ErrNotFound
		}
		return Record{}, nil, fmt.Errorf("store: %w", err)
	}
	rec, err := DecodeRecord(blob)
	if err != nil {
		return Record{}, nil, fmt.Errorf("%s: %w", clip(addr, 12), err)
	}
	return rec, blob, nil
}

// clip bounds a string destined for an error message.
func clip(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

// Meta describes one record found by Scan.
type Meta struct {
	Address string `json:"address"`
	Bench   string `json:"bench,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Class   string `json:"class,omitempty"`
	Bytes   int64  `json:"bytes"`
	// Stale marks a record written by another schema or code version;
	// Corrupt one that fails parsing or its payload hash. Both read as
	// misses; GC removes them.
	Stale   bool `json:"stale,omitempty"`
	Corrupt bool `json:"corrupt,omitempty"`
}

// Scan indexes every record in the store, in address order. Unlike Get it
// does not stop at damage: stale and corrupt records are reported with
// their flags set so `sweepd -scan`/-check can show the whole picture.
func (s *Store) Scan() ([]Meta, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	var metas []Meta
	for _, name := range names {
		addr := strings.TrimSuffix(filepath.Base(name), ".json")
		m := Meta{Address: addr}
		if fi, err := os.Stat(name); err == nil {
			m.Bytes = fi.Size()
		}
		rec, _, err := s.readRecord(addr)
		switch {
		case err == ErrNotFound:
			// Removed since the Glob (a concurrent GC): not in the store,
			// and not stale, or GC would delete whatever a writer renames
			// into its place.
			continue
		case errors.Is(err, ErrCorrupt):
			m.Corrupt = true
		case errors.Is(err, ErrNotFound):
			m.Stale = true
		case err != nil:
			m.Corrupt = true
		default:
			if Address(rec.Key) != addr {
				// A record renamed to the wrong address serves nobody.
				m.Corrupt = true
			}
			m.Bench, m.Engine, m.Class = rec.Bench, rec.Provenance.Engine, rec.Provenance.Class
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// CheckStats summarises an integrity pass.
type CheckStats struct {
	Records int   `json:"records"` // intact, current records
	Stale   int   `json:"stale"`
	Corrupt int   `json:"corrupt"`
	Bytes   int64 `json:"bytes"` // total on disk, damaged records included
}

// Check verifies every record's integrity (payload hash included) and
// returns the tally. It never modifies the store; GC removes what Check
// flags.
func (s *Store) Check() (CheckStats, error) {
	metas, err := s.Scan()
	if err != nil {
		return CheckStats{}, err
	}
	var st CheckStats
	for _, m := range metas {
		st.Bytes += m.Bytes
		switch {
		case m.Corrupt:
			st.Corrupt++
		case m.Stale:
			st.Stale++
		default:
			st.Records++
		}
	}
	return st, nil
}

// GCStats summarises an eviction pass.
type GCStats struct {
	Removed      int   `json:"removed"`       // records deleted
	RemovedBytes int64 `json:"removed_bytes"` // bytes freed
	Kept         int   `json:"kept"`
	KeptBytes    int64 `json:"kept_bytes"`
}

// GC evicts until the store is healthy and within budget: stale and
// corrupt records always go (they can never be served), orphaned temp
// files older than an hour go (a crashed writer left them), and when
// maxBytes > 0, the oldest intact records (by modification time) go until
// the survivors fit. maxBytes <= 0 means no size budget — GC is then pure
// garbage collection of unservable files.
func (s *Store) GC(maxBytes int64) (GCStats, error) {
	metas, err := s.Scan()
	if err != nil {
		return GCStats{}, err
	}
	var st GCStats
	type aged struct {
		path  string
		bytes int64
		mtime time.Time
	}
	var intact []aged
	for _, m := range metas {
		path := s.path(m.Address)
		if m.Corrupt || m.Stale {
			if err := os.Remove(path); err == nil || os.IsNotExist(err) {
				st.Removed++
				st.RemovedBytes += m.Bytes
			}
			continue
		}
		a := aged{path: path, bytes: m.Bytes}
		if fi, err := os.Stat(path); err == nil {
			a.mtime = fi.ModTime()
		}
		intact = append(intact, a)
	}
	// Orphaned temp files: writers rename within milliseconds, so a
	// temp file an hour old has no owner.
	if tmps, err := filepath.Glob(filepath.Join(s.dir, ".put-*.tmp")); err == nil {
		for _, tmp := range tmps {
			if fi, err := os.Stat(tmp); err == nil && time.Since(fi.ModTime()) > time.Hour {
				os.Remove(tmp)
			}
		}
	}
	sort.Slice(intact, func(i, j int) bool { return intact[i].mtime.Before(intact[j].mtime) })
	var total int64
	for _, a := range intact {
		total += a.bytes
	}
	for _, a := range intact {
		if maxBytes <= 0 || total <= maxBytes {
			st.Kept++
			st.KeptBytes += a.bytes
			continue
		}
		if err := os.Remove(a.path); err == nil || os.IsNotExist(err) {
			st.Removed++
			st.RemovedBytes += a.bytes
			total -= a.bytes
		} else {
			st.Kept++
			st.KeptBytes += a.bytes
		}
	}
	return st, nil
}

// Len returns the number of intact, current records.
func (s *Store) Len() (int, error) {
	st, err := s.Check()
	return st.Records, err
}

func (s *Store) path(addr string) string {
	return filepath.Join(s.dir, addr+".json")
}
