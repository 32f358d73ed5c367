package store

import (
	"syscall"
	"testing"
)

// TestFileSizeLimitLosesNoAck reproduces a full disk with the test
// process's own file-size limit: a 50-fact batch that crosses it fails
// after 20 bytes reached the log, and a one-fact append after the limit
// is restored is acknowledged — and recovered, with no torn tail.
// Before a failed write was truncated, recovery stopped at the torn
// batch and lost the acknowledged fact. It changes a limit of the whole
// process, so it must not run in parallel with another test that writes.
func TestFileSizeLimitLosesNoAck(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	acked := chain(0, 1)
	if err := s.AppendDatasetCreate("g", acked); err != nil {
		t.Fatal(err)
	}
	end := walLen(t, s)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lowered := old
	lowered.Cur = uint64(end + 20)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	err := s.AppendFacts("g", chain(10, 50), nil)
	grown := walLen(t, s)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("a 50-fact batch crossed the file-size limit without an error")
	}
	if grown != end || s.Failed() != nil {
		t.Fatalf("after the failed batch the log is %d bytes (was %d), failed %v", grown, end, s.Failed())
	}
	if err := s.AppendFacts("g", chain(100, 1), nil); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, chain(100, 1)...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	requireRecovers(t, dir, acked)
}
