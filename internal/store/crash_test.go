package store_test

// Crash-recovery differential test. A child process (this test binary
// re-executed with -test.run=TestCrashHelper) drives a randomized
// mutation workload against a durable sqod server and prints one ACK
// line per completed operation; the parent hard-kills it (SIGKILL — no
// drain, no final checkpoint) after a scenario-chosen number of acks,
// then recovers the directory and proves the recovered state is
// exactly the state an uninterrupted run reaches after some
// prefix of the schedule:
//
//   - the prefix covers every acknowledged operation (an acked write
//     is never lost),
//   - the durable mirror — datasets, views, interned rows — is
//     bit-identical (store.DiffState), and
//   - the recovered server answers every surviving view identically.
//
// The prefix search over [acked, total] is the crash semantics: the
// kill can land between a WAL append and its ACK, so recovery may
// legitimately include a small suffix of unacknowledged operations,
// but never a partial one and never a gap.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

type crashOp struct {
	method, path, body string
}

func factsSrc(facts []ast.Atom) string {
	var b strings.Builder
	for _, a := range facts {
		b.WriteString(a.String())
		b.WriteString(".\n")
	}
	return b.String()
}

func viewBody(prog, ics string, optimize bool) string {
	body, _ := json.Marshal(map[string]any{"program": prog, "ics": ics, "optimize": optimize})
	return string(body)
}

// crashSchedule derives a deterministic mutation workload from seed:
// dataset creates/deletes/replaces, fact batches in and out, view
// registrations and drops — every durable operation kind, in an order
// that keeps re-running the same seed byte-for-byte reproducible.
func crashSchedule(seed int64) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	prog, ics, facts := workload.RandomProgram(seed + 1000)
	ops := []crashOp{
		{http.MethodPost, "/v1/datasets/d0", factsSrc(facts)},
		{http.MethodPost, "/v1/datasets/d0/views/v0", viewBody(prog, ics, true)},
	}
	n := 10 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0: // insert a fresh batch
			ops = append(ops, crashOp{http.MethodPost, "/v1/datasets/d0/facts",
				factsSrc(workload.MonotoneRandomGraph(20, 3+rng.Intn(5), rng.Int63()))})
		case 1: // retract a sample of the original facts
			k := 1 + rng.Intn(3)
			sample := make([]ast.Atom, 0, k)
			for j := 0; j < k; j++ {
				sample = append(sample, facts[rng.Intn(len(facts))])
			}
			ops = append(ops, crashOp{http.MethodDelete, "/v1/datasets/d0/facts", factsSrc(sample)})
		case 2: // second dataset (409 once it exists — still deterministic)
			ops = append(ops, crashOp{http.MethodPost, "/v1/datasets/d1",
				factsSrc(workload.MonotoneRandomGraph(12, 10, rng.Int63()))})
		case 3: // wholesale replace (PUT logs the diff as one fact batch)
			ops = append(ops, crashOp{http.MethodPut, "/v1/datasets/d1",
				factsSrc(workload.MonotoneRandomGraph(12, 8, rng.Int63()))})
		case 4: // second view in and out
			if rng.Intn(2) == 0 {
				ops = append(ops, crashOp{http.MethodPost, "/v1/datasets/d0/views/v1",
					viewBody("tc(X, Y) :- step(X, Y).\ntc(X, Y) :- step(X, Z), tc(Z, Y).\n?- tc.\n", "", rng.Intn(2) == 0)})
			} else {
				ops = append(ops, crashOp{http.MethodDelete, "/v1/datasets/d0/views/v1", ""})
			}
		default:
			ops = append(ops, crashOp{http.MethodDelete, "/v1/datasets/d1", ""})
		}
	}
	return ops
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newServerOn builds a server over an opened store, replaying its
// recovered state.
func newServerOn(st *store.Store, rec *store.Recovered) *server.Server {
	return server.New(server.Config{Store: st, Recovered: rec, Logger: quietLogger()})
}

func driveOp(h http.Handler, op crashOp) int {
	req := httptest.NewRequest(op.method, op.path, strings.NewReader(op.body))
	if op.method != http.MethodGet {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code
}

// TestCrashHelper is the child-process body; it only runs when the
// parent sets SQOD_CRASH_DIR.
func TestCrashHelper(t *testing.T) {
	dir := os.Getenv("SQOD_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-test helper; driven by TestCrashRecoveryDifferential")
	}
	seed, _ := strconv.ParseInt(os.Getenv("SQOD_CRASH_SEED"), 10, 64)
	ckpt, _ := strconv.Atoi(os.Getenv("SQOD_CRASH_CKPT"))
	policy, err := store.ParseFsyncPolicy(os.Getenv("SQOD_CRASH_FSYNC"))
	if err != nil {
		t.Fatal(err)
	}
	st, rec, err := store.Open(dir, store.Options{
		Fsync: policy, FsyncInterval: time.Millisecond, CheckpointEvery: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newServerOn(st, rec).Handler()
	for i, op := range crashSchedule(seed) {
		code := driveOp(h, op)
		// The ACK goes to stdout only after the handler returned, i.e.
		// after the WAL append (under -fsync=always, after the fsync).
		fmt.Printf("ACK %d %d\n", i, code)
	}
	fmt.Println("DONE")
}

type crashScenario struct {
	name      string
	seed      int64
	fsync     string
	ckpt      int // checkpoint-every; 0 = never during the run
	killAfter int // SIGKILL after this many acks (≥ schedule length = clean exit)
}

func TestCrashRecoveryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []crashScenario{
		{"always-nockpt", 1, "always", 0, 4},
		{"always-ckpt5", 2, "always", 5, 11},
		{"never-ckpt3", 3, "never", 3, 7},
		{"interval-clean-exit", 4, "interval", 4, 999},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			acked := runChildUntilKilled(t, exe, dir, sc)
			verifyRecovered(t, dir, sc, acked)
		})
	}
}

// runChildUntilKilled starts the helper, counts its ACK lines, and
// SIGKILLs it after sc.killAfter of them. Returns the number of
// operations acknowledged before the kill landed (the child may print
// more acks than the threshold while the signal is in flight; all of
// them are durability promises, so all of them count).
func runChildUntilKilled(t *testing.T, exe, dir string, sc crashScenario) int {
	t.Helper()
	cmd := exec.Command(exe, "-test.run=TestCrashHelper$")
	cmd.Env = append(os.Environ(),
		"SQOD_CRASH_DIR="+dir,
		"SQOD_CRASH_SEED="+strconv.FormatInt(sc.seed, 10),
		"SQOD_CRASH_CKPT="+strconv.Itoa(sc.ckpt),
		"SQOD_CRASH_FSYNC="+sc.fsync,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	safety := time.AfterFunc(60*time.Second, func() { _ = cmd.Process.Kill() })
	defer safety.Stop()

	acked := 0
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "ACK ") {
			acked++
			if acked == sc.killAfter {
				_ = cmd.Process.Kill() // SIGKILL: no drain, no checkpoint
			}
		}
	}
	_ = cmd.Wait() // exit status is irrelevant; the kill is the point
	if acked == 0 {
		t.Fatal("child acknowledged no operations")
	}
	return acked
}

// verifyRecovered recovers dir and searches for the schedule prefix
// whose uninterrupted replay, into a fresh store, matches it bit-for-bit.
func verifyRecovered(t *testing.T, dir string, sc crashScenario, acked int) {
	t.Helper()
	recSt, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("recovering: %v", err)
	}
	defer recSt.Close()
	recSrv := newServerOn(recSt, rec)

	schedule := crashSchedule(sc.seed)
	total := len(schedule)
	if acked > total {
		acked = total
	}
	var lastDiff string
	for i := acked; i <= total; i++ {
		// A fresh store under a live server replays the prefix the way
		// the child originally ran it: same handlers, same WAL-op
		// order, same symbol-id assignment — so interned rows must
		// match bit for bit.
		memSt, memRec, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncNever, CheckpointEvery: sc.ckpt})
		if err != nil {
			t.Fatal(err)
		}
		defer memSt.Close()
		memSrv := newServerOn(memSt, memRec)
		h := memSrv.Handler()
		for _, op := range schedule[:i] {
			driveOp(h, op)
		}
		if diff := memSt.DiffState(recSt); diff != "" {
			lastDiff = fmt.Sprintf("prefix %d: %s", i, diff)
			continue
		}
		compareServers(t, memSrv, recSrv)
		t.Logf("recovered state = uninterrupted replay of %d/%d ops (%d acked, fsync=%s)",
			i, total, acked, sc.fsync)
		return
	}
	t.Fatalf("recovered state matches no schedule prefix in [%d, %d]; last diff: %s",
		acked, total, lastDiff)
}

// compareServers checks the recovered server against the replay server
// at the HTTP surface: same dataset inventory and identical answers
// for every registered view.
func compareServers(t *testing.T, memSrv, recSrv *server.Server) {
	t.Helper()
	memH, recH := memSrv.Handler(), recSrv.Handler()

	list := func(h http.Handler) []server.DatasetInfo {
		req := httptest.NewRequest(http.MethodGet, "/v1/datasets", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var infos []server.DatasetInfo
		if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
			t.Fatalf("datasets list: %v", err)
		}
		for i := range infos {
			infos[i].LastModified = time.Time{} // wall clock differs by construction
		}
		return infos
	}
	mem, recd := list(memH), list(recH)
	if fmt.Sprintf("%+v", mem) != fmt.Sprintf("%+v", recd) {
		t.Fatalf("dataset inventory differs:\nreplay:    %+v\nrecovered: %+v", mem, recd)
	}

	for _, info := range mem {
		for _, view := range info.Views {
			path := "/v1/datasets/" + info.Name + "/views/" + view
			answers := func(h http.Handler) (string, int) {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				var resp struct {
					Answers     []string `json:"answers"`
					AnswerCount int      `json:"answer_count"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Fatalf("view %s: %v", path, err)
				}
				return strings.Join(resp.Answers, ";"), resp.AnswerCount
			}
			ma, mc := answers(memH)
			ra, rc := answers(recH)
			if ma != ra || mc != rc {
				t.Fatalf("view %s answers differ after recovery:\nreplay:    %s\nrecovered: %s", path, ma, ra)
			}
		}
	}
}
