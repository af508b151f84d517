package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/upm"
)

// testResult builds a representative Result with every payload field class
// populated: int64 timings, per-iteration slices, engine and machine
// counters.
func testResult(label string) nas.Result {
	return nas.Result{
		Kernel:  "BT",
		Label:   label,
		Class:   nas.ClassS,
		TotalPS: 123456789012345,
		ColdPS:  987654321,
		IterPS:  []int64{41152263004115, 41152263004115, 41152263004115},
		PhasePS: []int64{1000, 2000, 3000},
		UPM: upm.Stats{
			Invocations: 3, Migrations: 17, FirstInvocation: 12,
			Frozen: 1, OverheadPS: 555,
		},
		KmigMoves: 7,
		KmigCost:  999,
		Mach: machine.Stats{
			Accesses: 1 << 40, L1Miss: 1 << 20, L2Miss: 1 << 16,
			TLBMiss: 1 << 10, LocalMem: 60000, RemoteMem: 5536,
			Faults: 4096, Migrations: 24,
		},
		PagesTotal: 640,
		Verified:   true,
		SteadyAt:   5,
	}
}

func TestRoundTripBitIdentical(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "BT\x00{Class:S Placement:rr ...}"
	want := testResult("rr-upmlib")
	if err := s.Put(key, "BT", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip not bit-identical:\n got %+v\nwant %+v", got, want)
	}

	// A second Put of the same cell must produce byte-identical record
	// files (the cross-process determinism the CI smoke diffs).
	blob1, err := os.ReadFile(filepath.Join(s.Dir(), Address(key)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, "BT", want); err != nil {
		t.Fatal(err)
	}
	blob2, err := os.ReadFile(filepath.Join(s.Dir(), Address(key)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(blob1) != string(blob2) {
		t.Error("re-Put of the same cell changed the record bytes")
	}
	enc, err := EncodeRecord(key, "BT", want)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(blob1) {
		t.Error("EncodeRecord differs from the bytes Put wrote")
	}
}

// TestReadRecordVerbatim: the raw bytes ReadRecord serves (the
// /v1/cells body) are exactly what Put wrote and EncodeRecord produces,
// and damage is detected on the way out, never served.
func TestReadRecordVerbatim(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "BT\x00cfg"
	if err := s.Put(key, "BT", testResult("rr-upmlib")); err != nil {
		t.Fatal(err)
	}
	addr := Address(key)
	got, err := s.ReadRecord(addr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(s.Dir(), addr+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("ReadRecord bytes differ from the file Put wrote")
	}
	enc, err := EncodeRecord(key, "BT", testResult("rr-upmlib"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(enc) {
		t.Error("ReadRecord bytes differ from EncodeRecord's")
	}
	if _, err := s.ReadRecord(Address("absent")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing address returned %v, want ErrNotFound", err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), addr+".json"), want[:len(want)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRecord(addr); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated record returned %v, want ErrCorrupt", err)
	}
}

// TestPutIntoVanishedDir: a store whose directory disappeared under it
// fails Put cleanly instead of silently dropping the record.
func TestPutIntoVanishedDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("BT\x00cfg", "BT", testResult("ft-IRIX")); err == nil {
		t.Error("Put into a removed directory succeeded")
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("no such key"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key returned %v, want ErrNotFound", err)
	}
}

func TestOpenUnwritable(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; directory permissions are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := Open(dir); err == nil {
		t.Error("Open of an unwritable directory succeeded")
	}
}

// TestCorruptionDetected: a truncated or bit-flipped record must read as
// ErrCorrupt — never be served — and the next Put must repair it.
func TestCorruptionDetected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(blob []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte {
			// Flip a bit inside the payload's numbers, far from the
			// envelope fields, so only the hash check can catch it.
			i := strings.Index(string(b), `"total_ps"`) + len(`"total_ps":`) + 2
			c := append([]byte(nil), b...)
			c[i] ^= 0x01
			return c
		}},
		{"emptied", func(b []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := "BT\x00config-" + tc.name
			if err := s.Put(key, "BT", testResult("ft-IRIX")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.Dir(), Address(key)+".json")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt record returned %v, want ErrCorrupt", err)
			}
			// Re-simulation repairs: Put overwrites, Get serves again.
			if err := s.Put(key, "BT", testResult("ft-IRIX")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(key); err != nil {
				t.Errorf("record not repaired by re-Put: %v", err)
			}
		})
	}
}

// TestStaleVersionIsMiss: records from another schema or code version are
// misses (re-simulate, overwrite), not corruption.
func TestStaleVersionIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "BT\x00cfg"
	if err := s.Put(key, "BT", testResult("ft-IRIX")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), Address(key)+".json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Provenance.CodeVersion = "upmgo-sim-0-ancient"
	stale, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("stale record returned %v, want ErrNotFound", err)
	}
	metas, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || !metas[0].Stale {
		t.Errorf("Scan did not flag the stale record: %+v", metas)
	}
}

func TestWrongKeyIsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", "BT", testResult("ft-IRIX")); err != nil {
		t.Fatal(err)
	}
	// Rename key-a's record to key-b's address: the envelope is intact but
	// answers the wrong question.
	if err := os.Rename(
		filepath.Join(s.Dir(), Address("key-a")+".json"),
		filepath.Join(s.Dir(), Address("key-b")+".json")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("key-b"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mis-addressed record returned %v, want ErrCorrupt", err)
	}
}

func TestScanCheckGC(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"BT\x00a", "SP\x00b", "CG\x00c"}
	for i, key := range keys {
		if err := s.Put(key, strings.Split(key, "\x00")[0], testResult("ft-IRIX")); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// Damage one record, stale another.
	if err := os.WriteFile(filepath.Join(s.Dir(), Address(keys[1])+".json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Check()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Records != 2 || ck.Corrupt != 1 || ck.Stale != 0 {
		t.Fatalf("Check = %+v, want 2 intact + 1 corrupt", ck)
	}
	metas, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("Scan found %d records, want 3", len(metas))
	}
	for _, m := range metas {
		if !m.Corrupt && m.Bench == "" {
			t.Errorf("intact record %s lacks bench metadata", m.Address[:12])
		}
	}

	// GC with no budget removes only the corrupt record.
	gc, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if gc.Removed != 1 || gc.Kept != 2 {
		t.Fatalf("GC(0) = %+v, want removed 1, kept 2", gc)
	}
	// GC with a tiny budget evicts intact records down to the cap.
	gc, err = s.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if gc.Kept != 0 || gc.Removed != 2 {
		t.Fatalf("GC(1) = %+v, want everything evicted", gc)
	}
	if n, _ := s.Len(); n != 0 {
		t.Errorf("store not empty after full eviction: %d records", n)
	}
}

// TestConcurrentSharing drives two independent Store handles (standing in
// for two processes) writing and reading the same directory concurrently:
// every read must see either a miss or a complete, intact record — never a
// partial write.
func TestConcurrentSharing(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = "BT\x00shared-" + strings.Repeat("x", i)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 256)
	for _, h := range []*Store{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 16; round++ {
				for _, key := range keys {
					if err := h.Put(key, "BT", testResult("ft-IRIX")); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := testResult("ft-IRIX")
			for round := 0; round < 64; round++ {
				for _, key := range keys {
					res, err := h.Get(key)
					if errors.Is(err, ErrNotFound) {
						continue // not written yet
					}
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(res, want) {
						errc <- errors.New("concurrent read returned a mangled result")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n, err := a.Len(); err != nil || n != len(keys) {
		t.Errorf("store holds %d records (%v), want %d", n, err, len(keys))
	}
}
