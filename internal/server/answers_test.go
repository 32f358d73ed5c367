package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	sqo "repro"
	"repro/internal/ast"
	"repro/internal/lint"
)

// The response path this package used to have, kept as the oracle for
// the one that replaced it: Tuple.String per answer, sort.Strings for a
// query (a view's answers arrive in Tuple.Key order and stay in it), and
// json.Encoder with SetIndent over the envelope holding the strings.

func referenceBody(envelope any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(envelope); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func referenceQueryBody(env queryResponse, tuples []sqo.Tuple) []byte {
	env.Answers = make([]string, len(tuples))
	for i, t := range tuples {
		env.Answers[i] = t.String()
	}
	sort.Strings(env.Answers)
	return referenceBody(env)
}

func referenceViewBody(env viewResponse, sorted []sqo.Tuple) []byte {
	env.Answers = make([]string, len(sorted))
	for i, t := range sorted {
		env.Answers[i] = t.String()
	}
	return referenceBody(env)
}

// copyProgram is q(X1..Xn) :- p(X1..Xn). ?- q. — for arity 0, q :- p(X).
// — and a database holding the tuples as p.
func copyProgram(arity int, tuples []sqo.Tuple) (*sqo.Program, *sqo.DB) {
	vars := make([]ast.Term, arity)
	for i := range vars {
		vars[i] = ast.V(fmt.Sprintf("X%d", i))
	}
	body := ast.NewAtom("p", vars...)
	if arity == 0 {
		body = ast.NewAtom("p", ast.V("X"))
	}
	db := sqo.NewDB()
	rel := db.Rel("p", len(body.Args))
	for _, t := range tuples {
		rel.Add(t)
	}
	return &sqo.Program{Rules: []ast.Rule{{Head: ast.NewAtom("q", vars...), Pos: []ast.Atom{body}}}, Query: "q"}, db
}

// requireAnswerBodies writes the tuples through both envelopes and both
// paths and requires equal bytes. Each result is written three times:
// the query's is an answer memo's, as a repeated request's is, so its
// second write keeps its array when that fits one chunk, and its third
// body is written from that array. rare adds the members an envelope seldom carries: the query's
// round deltas, the view's cache hit and diagnostics.
func requireAnswerBodies(t testing.TB, label string, arity int, tuples []sqo.Tuple, rare bool) {
	t.Helper()
	prog, db := copyProgram(arity, tuples)
	prep, err := sqo.Prepare(prog, sqo.DefaultEvalOptions())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var result *sqo.QueryResult
	var stats *sqo.Stats
	for i := 0; i < 2; i++ { // the first run compiles the plans; the second fills the memo
		if result, stats, err = prep.Run(context.Background(), db, prog.Goal, sqo.DefaultEvalOptions()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	qenv := queryResponse{Query: "q <&>", Answers: []string{}, AnswerCount: result.Len(), Satisfiable: true, Optimized: true,
		Stats: queryStats{Rounds: stats.Iterations, TuplesDerived: stats.TuplesDerived}, OptimizeMS: 0.25, EvalMS: 1.5}
	if rare {
		qenv.RoundDeltas = stats.RoundDeltas()
	}
	want := referenceQueryBody(qenv, result.Tuples())
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		writeAnswers(rec, qenv, result, sqo.ByString)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s, write %d: query body differs from render-sort-encode\n got %.2000s\nwant %.2000s", label, i+1, rec.Body, want)
		}
		// The first write keeps nothing. From the second, a body inside
		// one 64 KB chunk keeps its array; one a kilobyte (more than the
		// envelope's tail) past it does not.
		kept, _ := result.Rendered(sqo.ByString)
		if small, large := i > 0 && result.Len() > 0 && len(want) < 64<<10, i == 0 || len(want) > 65<<10; small && kept == nil || large && kept != nil {
			t.Fatalf("%s, write %d: the result keeps %d bytes of a %d-byte body", label, i+1, len(kept), len(want))
		}
	}

	view, err := sqo.Materialize(prog, db, sqo.ViewOptions{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	vres, err := view.Result()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sorted, _ := view.Answers()
	venv := viewResponse{Name: "v", Dataset: "d", Query: "q", Answers: []string{}, AnswerCount: vres.Len(), Optimized: true,
		Stats: toViewStats(view.Stats()), MaterializeMS: 2.5}
	if rare {
		venv.CacheHit, venv.MaterializeMS = true, 0
		venv.Diagnostics = []sqo.LintFinding{{Check: "reach", ID: "unreachable-rule", Severity: lint.Warning, Line: 2, Col: 1,
			Message: "rule for \"p<q>\" & é\u2028 never reached"}}
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		writeAnswers(rec, venv, vres, sqo.ByKey)
		if want := referenceViewBody(venv, sorted); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s, write %d: view body differs from Answers-render-encode\n got %.2000s\nwant %.2000s", label, i+1, rec.Body, want)
		}
	}
}

// answerVocabulary: constants that are prefixes of one another in every
// rendering, negatives and -0, and strings that need quoting and each
// kind of JSON escape.
func answerVocabulary() []ast.Term {
	out := []ast.Term{ast.N(1), ast.N(10), ast.N(1e21), ast.N(1e-7), ast.N(-1), ast.N(-10), ast.N(math.Copysign(0, -1)), ast.N(0), ast.N(1.5)}
	for _, s := range []string{"a", "ab", "a_b", "", `a"b`, `a\b`, "a,b", "a)", "a b", "<a>", "&", "a\x00", "a\x01", "\x1f", "\n",
		"é", "日本", "\u2028", "\xff", "a\xffb", "A", "1", "10"} {
		out = append(out, ast.S(s))
	}
	return out
}

// TestAnswerWriterMatchesEncoder is the differential of the response
// writer against the encoder path it replaced, over the vocabulary above,
// arities 0-3, zero, one and many answers, with and without round deltas,
// as a query envelope (Tuple.String order) and as a view envelope
// (Tuple.Key order). What each part is there to catch: numbers against
// quoted strings and "-1" against "1" tell String order from Key order on
// the query path; "a\x01" against "a" in a first column does the same for
// the view path's fallback; the zero- and one-answer cases pin "[]" and
// the absent trailing comma; <, >, &, U+2028 and \xff pin HTML-safe
// escaping; 70,000 answers cross every chunk boundary (jsonresp's own
// test checks that some fall inside an escape).
func TestAnswerWriterMatchesEncoder(t *testing.T) {
	vocab := answerVocabulary()
	for arity := 0; arity <= 3; arity++ {
		var all []sqo.Tuple
		var cross func(prefix sqo.Tuple)
		cross = func(prefix sqo.Tuple) {
			if len(prefix) == max(arity, 1) {
				all = append(all, append(sqo.Tuple(nil), prefix...))
				return
			}
			for i, c := range vocab {
				if len(prefix) > 0 && (i+len(prefix))%5 != 0 && arity == 3 {
					continue // a fifth of the cube is enough
				}
				cross(append(prefix, c))
			}
		}
		cross(nil)
		for _, n := range []int{0, 1, len(all)} {
			requireAnswerBodies(t, fmt.Sprintf("arity %d, %d tuples", arity, n), arity, all[:n], n == 1)
		}
	}
	var many []sqo.Tuple
	for i := 0; i < 70000; i++ {
		many = append(many, sqo.Tuple{ast.N(float64(i)), ast.S(fmt.Sprintf("<%d>\u2028", i%97))})
	}
	requireAnswerBodies(t, "70,000 answers", 2, many, true)
}

// FuzzAnswerWriter: random tuples of random constants, byte equality with
// the reference in both envelopes.
func FuzzAnswerWriter(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 2, 1, 255, 2, 7, 3, 2, 'a', 1})
	f.Add([]byte{1, 3, 1, 0, 3, 1, 1, 3, 2, 'a', 1})
	f.Add([]byte{3, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14})
	f.Add([]byte{0, 0, 0})
	vocab := answerVocabulary()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		arity := int(data[0] % 4)
		var consts []ast.Term
		for i := 1; i+1 < len(data); i += 2 {
			kind, v := data[i], data[i+1]
			switch kind % 4 {
			case 0:
				consts = append(consts, vocab[int(v)%len(vocab)])
			case 1:
				consts = append(consts, ast.N(float64(int8(v))))
			case 2:
				consts = append(consts, ast.N(float64(v)*math.Pow10(int(kind/4)%44-22)))
			default:
				n := min(int(v%6), len(data)-i-2)
				consts = append(consts, ast.S(string(data[i+2:i+2+n])))
				i += n
			}
		}
		width := max(arity, 1)
		var tuples []sqo.Tuple
		for ; len(consts) >= width; consts = consts[width:] {
			tuples = append(tuples, sqo.Tuple(consts[:width]))
		}
		requireAnswerBodies(t, fmt.Sprintf("arity %d, %d tuples", arity, len(tuples)), arity, tuples, len(data)%2 == 0)
	})
}

// TestResultOutlivesItsSnapshot holds one query result across 100
// further updates and queries of its dataset — each update replaces the
// snapshot, each query derives the new snapshot's interned base from the
// one before, copying the interner when the update brings a new constant
// — and then writes it: the body is the one written at query time.
func TestResultOutlivesItsSnapshot(t *testing.T) {
	ds := newDataset("g", nil, time.Now())
	ctx := context.Background()
	chain := func(c, from, to int) []sqo.Atom {
		var out []sqo.Atom
		for i := from; i < to; i++ {
			out = append(out, ast.NewAtom("edge", ast.N(float64(c*100+i)), ast.N(float64(c*100+i+1))))
		}
		return out
	}
	if _, _, err := ds.update(ctx, chain(0, 0, 30), nil, false, time.Now(), nil); err != nil {
		t.Fatal(err)
	}
	prog := sqo.MustParseProgram(tcQuery)
	query := func() (*sqo.QueryResult, []byte) {
		res, _, err := sqo.QueryResultCtx(ctx, prog, ds.snapshot(), sqo.DefaultEvalOptions())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeAnswers(rec, queryResponse{Query: "path", Answers: []string{}, AnswerCount: res.Len()}, res, sqo.ByString)
		return res, rec.Body.Bytes()
	}
	held, atQueryTime := query()
	done := make(chan struct{})
	go func() { // a second reader of the held result, for the race detector
		defer close(done)
		for i := 0; i < 20; i++ {
			held.Ordered(sqo.ByKey, nil, func([][]byte) bool { return true })
		}
	}()
	for i := 1; i <= 100; i++ {
		adds, dels := chain(i%7+1, 0, 5+i%10), chain(0, i%30, i%30+1)
		if i%2 == 0 {
			adds, dels = dels, nil // put the cut edge of chain 0 back
		}
		if _, _, err := ds.update(ctx, adds, dels, false, time.Now(), nil); err != nil {
			t.Fatal(err)
		}
		if _, body := query(); i%2 == 0 && bytes.Equal(body, atQueryTime) {
			t.Fatalf("update %d: the dataset grew but its answers did not", i)
		}
	}
	<-done
	rec := httptest.NewRecorder()
	writeAnswers(rec, queryResponse{Query: "path", Answers: []string{}, AnswerCount: held.Len()}, held, sqo.ByString)
	if !bytes.Equal(rec.Body.Bytes(), atQueryTime) || held.Len() != 31*30/2 {
		t.Fatalf("a result held across 100 updates wrote a different body (%d answers)", held.Len())
	}
}

// TestStatusWriterUnwraps: handlers get http.ResponseController's reach
// through the instrumenting wrapper — Flush and SetWriteDeadline succeed
// inside a handler — and the wrapper still counts every byte of a body
// that leaves in several flushed writes.
func TestStatusWriterUnwraps(t *testing.T) {
	var logs bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	var flushErr, deadlineErr error
	h := s.instrument("probe", func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		w.WriteHeader(http.StatusAccepted)
		for i := 0; i < 3; i++ {
			fmt.Fprint(w, strings.Repeat("x", 1000))
			if err := rc.Flush(); err != nil {
				flushErr = err
			}
		}
		deadlineErr = rc.SetWriteDeadline(time.Now().Add(time.Minute))
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if flushErr != nil || deadlineErr != nil {
		t.Fatalf("through statusWriter: Flush err = %v, SetWriteDeadline err = %v; want both nil", flushErr, deadlineErr)
	}
	if body.Len() != 3000 || resp.StatusCode != http.StatusAccepted || len(resp.TransferEncoding) == 0 {
		t.Fatalf("client got %d bytes, status %d, transfer encoding %v; want 3000 flushed (chunked) bytes and 202",
			body.Len(), resp.StatusCode, resp.TransferEncoding)
	}
	if line := logs.String(); !strings.Contains(line, `"bytes":3000`) || !strings.Contains(line, `"status":202`) {
		t.Fatalf("request log does not count the flushed writes: %s", line)
	}
}

// TestViewReadDoesNotWaitForWriter parks an update inside its persist
// callback — d.mu held, the WAL append "in progress" — and requires
// GET …/views/{view} to complete with the pre-update answers: finding
// the view takes no dataset lock, and no view is being maintained yet
// (the append precedes every ApplyCtx).
func TestViewReadDoesNotWaitForWriter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "g", "edge(1, 2). edge(2, 3).")
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/g/views/tc", map[string]any{"program": tcQuery}, nil); code != http.StatusOK {
		t.Fatalf("view create: %d %s", code, raw)
	}
	ds, _ := s.datasets.get("g")
	read := func() []string {
		var resp viewResponse
		if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/g/views/tc", nil, &resp); code != http.StatusOK {
			t.Fatalf("view read: %d %s", code, raw)
		}
		return resp.Answers
	}
	before := read()
	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, err := ds.update(context.Background(), sqo.MustParseFacts("edge(3, 4)."), nil, false, time.Now(),
			func(adds, dels []sqo.Atom) error {
				close(parked)
				<-release
				return nil
			})
		done <- err
	}()
	<-parked
	got := make(chan []string, 1)
	go func() { got <- read() }()
	select {
	case answers := <-got:
		if fmt.Sprint(answers) != fmt.Sprint(before) || len(answers) != 3 {
			t.Errorf("view read under a parked update = %v, want the answers from before it %v", answers, before)
		}
	case <-time.After(5 * time.Second):
		t.Error("view read queued behind a parked update")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if after := read(); len(after) != 6 {
		t.Fatalf("view after the update = %v, want 6 answers", after)
	}
}

// TestMemoHitWritesKeptArray: a repeated query's answers come from the
// array its memoized result kept on its first memo hit, not from a fresh
// rendering. The test marks one byte of the kept array and finds it in
// the next response, then unmarks it.
func TestMemoHitWritesKeptArray(t *testing.T) {
	s, h := warmServer(t, Config{})
	program := "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(1, Y)."
	body := `{"program": "` + program + `", "dataset": "d"}`
	var first string
	// The first run compiles the plans, the second fills the memo and the
	// third, its first hit, keeps its array.
	for i := 0; i < 3; i++ {
		_, first = serveBody(h, http.MethodPost, "/v1/query", body)
	}
	p, err := s.parse(program, "", true, "query\x00true")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.cache.get(p.key)
	ds, _ := s.datasets.get("d")
	if !ok || ds == nil {
		t.Fatal("the query's cache entry or its dataset is gone")
	}
	res, st, err := c.prep.Run(context.Background(), ds.snapshot(), p.prog.Goal, sqo.DefaultEvalOptions())
	if err != nil || !st.MemoHit {
		t.Fatalf("the memo does not hold the query's result (err %v)", err)
	}
	kept, keepable := res.Rendered(sqo.ByString)
	at := bytes.IndexByte(kept, '(')
	if at < 0 || keepable {
		t.Fatalf("the memoized result keeps %q (another would be kept: %v)", kept, keepable)
	}
	kept[at] = '['
	_, marked := serveBody(h, http.MethodPost, "/v1/query", body)
	kept[at] = '('
	_, again := serveBody(h, http.MethodPost, "/v1/query", body)
	if !strings.Contains(marked, `"[`) {
		t.Fatalf("a memo hit rendered its answers afresh:\n%s", marked)
	}
	if luckFields.ReplaceAllString(again, "$1") != luckFields.ReplaceAllString(first, "$1") {
		t.Fatalf("the body after the kept array's first use differs:\n%s\nvs\n%s", again, first)
	}
}

// TestAnswerBodiesCarryContentLength, over a real connection: a body
// held whole — a 50-answer point query, a 300-answer one and a
// 465-answer view read, 2 to 64 KB, each served twice so that the second
// comes from a kept array — carries its Content-Length and no
// Transfer-Encoding, and a 51,000-answer body still streams, chunked.
func TestAnswerBodiesCarryContentLength(t *testing.T) {
	h, full, point := responseFixture(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	var long strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&long, "edge(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "long", long.String())
	longQuery := fmt.Sprintf(`{"program": %q, "ics": %q, "dataset": "long"}`, respTC+"?- path(0, Y).\n", respICs)
	registerDataset(t, ts.URL, "short", strings.Join(strings.SplitAfter(long.String(), "\n")[:30], ""))
	if code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/short/views/v", fmt.Sprintf(`{"program": %q}`, respTC+"?- path.\n"), nil); code != http.StatusOK {
		t.Fatalf("view create: %d %s", code, raw)
	}
	for _, c := range []struct {
		name, method, path, body string
		whole                    bool
	}{
		{"50 answers", http.MethodPost, "/v1/query", point, true},
		{"300 answers", http.MethodPost, "/v1/query", longQuery, true},
		{"465-answer view", http.MethodGet, "/v1/datasets/short/views/v", "", true},
		{"51,000 answers", http.MethodPost, "/v1/query", full, false},
	} {
		for i := 0; i < 2; i++ {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %v %.200s", c.name, resp.StatusCode, err, raw)
			}
			t.Logf("%s: %d bytes, Content-Length %d, Transfer-Encoding %v", c.name, len(raw), resp.ContentLength, resp.TransferEncoding)
			if c.whole && (resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) > 0) {
				t.Errorf("%s: a %d-byte body with Content-Length %d and Transfer-Encoding %v", c.name, len(raw), resp.ContentLength, resp.TransferEncoding)
			}
			if !c.whole && (resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked") {
				t.Errorf("%s: a %d-byte body with Content-Length %d and Transfer-Encoding %v, want it streamed", c.name, len(raw), resp.ContentLength, resp.TransferEncoding)
			}
		}
	}
}
