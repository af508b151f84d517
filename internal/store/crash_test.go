package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"upmgo/internal/nas"
)

// crashKeys is the key space the crash tests write: record i of it holds
// crashResult(i), so any intact record can be checked bit for bit.
const crashKeys = 64

func crashKey(i int) string { return fmt.Sprintf("BT\x00crash-%d", i) }

func crashResult(i int) nas.Result {
	res := testResult(fmt.Sprintf("cell-%d", i))
	res.TotalPS += int64(i)
	res.KmigMoves = int64(i)
	return res
}

// checkCrashStore asserts that the store in dir holds no damaged or stale
// record and that every intact record serves exactly the result written
// under its key. It returns the number of intact records.
func checkCrashStore(t *testing.T, dir string) int {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s.Check()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Corrupt != 0 || ck.Stale != 0 {
		t.Fatalf("Check = %+v, want no corrupt or stale records", ck)
	}
	byAddr := make(map[string]int, crashKeys)
	for i := 0; i < crashKeys; i++ {
		byAddr[Address(crashKey(i))] = i
	}
	metas, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metas {
		i, ok := byAddr[m.Address]
		if !ok {
			t.Fatalf("record %s was never written", m.Address[:12])
		}
		got, err := s.Get(crashKey(i))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := crashResult(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d serves %+v, want %+v", i, got, want)
		}
	}
	return ck.Records
}

// crashDirEnv names the store directory a re-executed test binary writes
// into as the Put-looping child of TestKillMidPutLeavesStoreIntact.
const crashDirEnv = "UPMGO_STORE_CRASH_DIR"

// TestKillMidPutLeavesStoreIntact re-executes the test binary as a child
// that Puts records in a tight loop, SIGKILLs it mid-loop, and checks the
// store: a write interrupted at any point (temp file half written, about
// to be renamed) must leave no corrupt record, and every intact record
// must Get bit-identical. Several children in turn share one directory,
// so later ones overwrite records an earlier one left.
func TestKillMidPutLeavesStoreIntact(t *testing.T) {
	if dir := os.Getenv(crashDirEnv); dir != "" {
		putForever(dir)
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	intact := 0
	for round := 0; round < 4; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestKillMidPutLeavesStoreIntact$")
		cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The child reports after its first completed Put; then let it run
		// on for a while before the kill.
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil || line != "putting\n" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child did not start: %q, %v", line, err)
		}
		time.Sleep(time.Duration(10+15*round) * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // reports the kill
		if intact = checkCrashStore(t, dir); intact == 0 {
			t.Fatalf("round %d: no intact records", round)
		}
	}
	// A killed writer may leave its temp file behind; it never reads as a
	// record, and GC with no budget removes no intact record.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(0); err != nil {
		t.Fatal(err)
	}
	if after := checkCrashStore(t, dir); after != intact {
		t.Errorf("GC(0) after the crashes left %d of %d intact records", after, intact)
	}
}

// putForever is the child side of TestKillMidPutLeavesStoreIntact: it
// cycles Put over the crash key space until killed. It gives up after a
// minute so that a child whose parent died does not run on.
func putForever(dir string) {
	s, err := Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	deadline := time.Now().Add(time.Minute)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := s.Put(crashKey(i%crashKeys), "BT", crashResult(i%crashKeys)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if i == 0 {
			fmt.Println("putting")
		}
	}
	os.Exit(3)
}

// TestGCRacesPut runs GC, with and without a size budget, and Check
// against concurrent Puts and Gets on one directory. A budget GC deletes
// intact records while writers replace them, so Gets may miss, but no
// reader may ever see a damaged or stale record, and afterwards the store
// must check clean with every survivor bit-identical. Run it under -race.
func TestGCRacesPut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeRecord(crashKey(0), "BT", crashResult(0))
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(len(blob)) * crashKeys / 4 // about a quarter of the key space fits
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	fail := func(err error) { // keeps the first error
		select {
		case errc <- err:
		default:
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8*crashKeys; i++ {
				k := (i*7 + w) % crashKeys
				if err := s.Put(crashKey(k), "BT", crashResult(k)); err != nil {
					fail(err)
					return
				}
				got, err := s.Get(crashKey(k))
				if errors.Is(err, ErrNotFound) {
					continue // evicted by a GC since the Put
				}
				if err != nil {
					fail(err)
					return
				}
				if !reflect.DeepEqual(got, crashResult(k)) {
					fail(fmt.Errorf("record %d served a mangled result", k))
					return
				}
			}
		}()
	}
	var gcs sync.WaitGroup
	stop := make(chan struct{})
	for _, maxBytes := range []int64{0, budget, budget} {
		gcs.Add(1)
		go func() {
			defer gcs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.GC(maxBytes); err != nil {
					fail(err)
					return
				}
				ck, err := s.Check()
				if err != nil {
					fail(err)
					return
				}
				if ck.Corrupt != 0 || ck.Stale != 0 {
					fail(fmt.Errorf("Check during the race = %+v, want no corrupt or stale records", ck))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	gcs.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	checkCrashStore(t, dir)
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".put-*.tmp")); len(tmps) != 0 {
		t.Errorf("finished writers left %d temp files", len(tmps))
	}
}
