package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/store"
)

// The serving workloads: closed loop, min(nproc, 4) clients with one
// keep-alive connection each, against the real sqod binary as a child
// process — default flags and logging, one fresh process (and data
// directory) per set-up so every run starts from the same state.

const (
	// The generated lists are long enough for a host three times as
	// fast as this one, which gets through some 13k point queries or
	// 3.4k mixed operations in a 20-second run; a run stops at its
	// deadline, or at the end of its list.
	pointListLen = 40000
	mixedListLen = 12000
	// Warm-up operations are executed and discarded: two passes over
	// the hot set on serve-point, five mix blocks on serve-mixed.
	pointWarm = 2 * hotSetSize
	mixedWarm = 5 * 20
	// The traced run replays this many operations after the warm-up,
	// single-threaded, through the child and through the shadow.
	pointReplay = 400
	mixedReplay = 200
	setupReps   = 7
	// The timed stretch pauses this often for the calibration kernel.
	segment = time.Second
)

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// servePlan is everything a serving run derives from its seed.
type servePlan struct {
	name  string
	mixed bool
	ops   []op
	sha   string
	warm  int
	// Bounds for reads that span regions another client is changing:
	// what such a region holds in every state (its base edges minus
	// every edge the list ever cuts) and in any state (plus every leaf
	// the list ever attaches), as path closures and as view answers.
	minPath, maxPath, minView, maxView [numRegions]map[pair]bool
}

func newServePlan(seed int64, mixed bool) *servePlan {
	if !mixed {
		ops := pointOps(seed, pointListLen)
		return &servePlan{name: wServePoint, ops: ops, sha: opsSHA(ops), warm: pointWarm}
	}
	p := &servePlan{name: wServeMixed, mixed: true, ops: mixedOps(seed, mixedListLen), warm: mixedWarm}
	p.sha = opsSHA(p.ops)
	lo, hi := newOracleState(), newOracleState()
	for _, o := range p.ops {
		switch {
		case o.Kind == opRetract && o.Cascade:
			lo.g[o.Region].remove(o.X, o.Y)
		case o.Kind == opAdd && !o.Cascade:
			hi.g[o.Region].add(o.X, o.Y)
		}
	}
	for r := 0; r < numRegions; r++ {
		p.minPath[r], p.maxPath[r] = lo.g[r].closure(nil), hi.g[r].closure(nil)
		p.minView[r], p.maxView[r] = viewOf(lo.g[r]), viewOf(hi.g[r])
	}
	return p
}

// viewOf is the oracle's goodPath: paths from a start to an end point.
func viewOf(g graph) map[pair]bool {
	out := map[pair]bool{}
	for p := range g.closure(isStart) {
		if isEnd(p[1]) {
			out[p] = true
		}
	}
	return out
}

// tally identifies a set of pairs by its size and an order-independent
// hash, so that a 51k-answer response is checked in one pass with no
// set built on either side.
type tally struct {
	n   int
	sum uint64
}

func (t *tally) add(p pair) {
	h := uint64(p[0])*0x9E3779B97F4A7C15 + uint64(p[1])
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	t.n++
	t.sum += h ^ h>>32
}

func (t *tally) merge(o tally) { t.n += o.n; t.sum += o.sum }

// oracleState is the dataset as the oracle tracks it: one graph per
// region and, per chain, the tallies of its path closure and of its
// view answers, kept current as updates arrive. A region is only ever
// touched by the goroutine executing that region's operations.
type oracleState struct {
	g           [numRegions]graph
	paths, view [numChains]tally
}

func newOracleState() *oracleState {
	s := &oracleState{}
	for r := range s.g {
		s.g[r] = graph{}
	}
	for c := 0; c < numChains; c++ {
		for i := 0; i < chainLen; i++ {
			s.g[c%numRegions].add(nodeID(c, i), nodeID(c, i+1))
		}
	}
	for c := 0; c < numChains; c++ {
		s.refresh(c)
	}
	return s
}

// refresh recomputes a chain's tallies by searching from each of its
// nodes.
func (s *oracleState) refresh(chain int) {
	g := s.g[chain%numRegions]
	var paths, view tally
	for pos := 0; pos < stride; pos++ {
		x := nodeID(chain, pos)
		for _, y := range g.reach(x) {
			paths.add(pair{x, y})
			if isStart(x) && isEnd(y) {
				view.add(pair{x, y})
			}
		}
	}
	s.paths[chain], s.view[chain] = paths, view
}

// want returns the tally of a region's answers.
func (s *oracleState) want(region int, view bool) tally {
	var t tally
	for c := region; c < numChains; c += numRegions {
		if view {
			t.merge(s.view[c])
		} else {
			t.merge(s.paths[c])
		}
	}
	return t
}

func (s *oracleState) edges() int {
	n := 0
	for _, g := range s.g {
		for _, vs := range g {
			n += len(vs)
		}
	}
	return n
}

// sample is one executed operation as the client saw it.
type sample struct {
	op      op
	latMS   float64
	err     error // nil = answered 2xx with the oracle's answer
	answers []string
	// The response's own account of itself.
	optimizeMS, evalMS float64
}

type queryResp struct {
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	OptimizeMS  float64  `json:"optimize_ms"`
	EvalMS      float64  `json:"eval_ms"`
}

type updateResp struct {
	FactsAdded   int `json:"facts_added"`
	FactsRemoved int `json:"facts_removed"`
	Views        []struct {
		Name           string `json:"name"`
		AnswersAdded   int    `json:"answers_added"`
		AnswersRemoved int    `json:"answers_removed"`
		Error          string `json:"error"`
	} `json:"views"`
}

type lintResp struct {
	Findings []json.RawMessage `json:"findings"`
	Errors   int               `json:"errors"`
}

// exec sends one operation, advances the oracle, and compares. own
// marks the regions whose state is determined at this moment (the
// executing client's own; all of them when the run is single-threaded).
func (p *servePlan) exec(cl *client, st *oracleState, own [numRegions]bool, o op) sample {
	method, path, body := o.request()
	status, data, lat, err := cl.do(method, path, body)
	s := sample{op: o, latMS: float64(lat) / 1e6}
	// The oracle advances whether or not the request succeeded, so one
	// failure is counted once and not again on every later operation.
	var factDelta, before map[pair]bool
	if o.Kind == opAdd || o.Kind == opRetract {
		g := st.g[o.Region]
		before = chainView(g, o.X/stride)
		changed := false
		if o.Kind == opAdd {
			changed = g.add(o.X, o.Y)
		} else {
			changed = g.remove(o.X, o.Y)
		}
		if changed {
			factDelta = map[pair]bool{{o.X, o.Y}: true}
			st.refresh(o.X / stride)
		}
	}
	switch {
	case err != nil:
		s.err = err
		return s
	case status < 200 || status > 299:
		s.err = fmt.Errorf("%s %s: status %d: %.200s", method, path, status, data)
		return s
	}
	switch o.Kind {
	case opPoint, opFull:
		var r queryResp
		if s.err = json.Unmarshal(data, &r); s.err != nil {
			return s
		}
		s.answers, s.optimizeMS, s.evalMS = r.Answers, r.OptimizeMS, r.EvalMS
		if r.AnswerCount != len(r.Answers) {
			s.err = fmt.Errorf("answer_count %d but %d answers", r.AnswerCount, len(r.Answers))
		} else if o.Kind == opPoint {
			s.err = checkPoint(r.Answers, o.Node, st.g[regionOf(o.Node)])
		} else {
			s.err = p.checkGlobal(r.Answers, st, own, false)
		}
	case opView:
		var r queryResp
		if s.err = json.Unmarshal(data, &r); s.err == nil {
			s.answers = r.Answers
			s.err = p.checkGlobal(r.Answers, st, own, true)
		}
	case opAdd, opRetract:
		var r updateResp
		if s.err = json.Unmarshal(data, &r); s.err != nil {
			return s
		}
		after := chainView(st.g[o.Region], o.X/stride)
		gained, lost := setDiff(after, before), setDiff(before, after)
		switch {
		case r.FactsAdded+r.FactsRemoved != len(factDelta):
			s.err = fmt.Errorf("update changed %d facts, oracle %d", r.FactsAdded+r.FactsRemoved, len(factDelta))
		case len(r.Views) != 1 || r.Views[0].Error != "":
			s.err = fmt.Errorf("update reported views %+v", r.Views)
		case r.Views[0].AnswersAdded != gained || r.Views[0].AnswersRemoved != lost:
			s.err = fmt.Errorf("view gained %d lost %d, oracle %d and %d",
				r.Views[0].AnswersAdded, r.Views[0].AnswersRemoved, gained, lost)
		}
	case opLint:
		var r lintResp
		if s.err = json.Unmarshal(data, &r); s.err == nil {
			s.answers = []string{fmt.Sprint(len(r.Findings), " findings")}
			if r.Errors != 0 {
				s.err = fmt.Errorf("lint reported %d errors on a clean program", r.Errors)
			}
		}
	}
	return s
}

// chainView is the oracle's goodPath answers inside one chain.
func chainView(g graph, chain int) map[pair]bool {
	out := map[pair]bool{}
	for _, pos := range []int{0, 10} {
		x := nodeID(chain, pos)
		for _, y := range g.reach(x) {
			if isEnd(y) {
				out[pair{x, y}] = true
			}
		}
	}
	return out
}

func setDiff(a, b map[pair]bool) int {
	n := 0
	for p := range a {
		if !b[p] {
			n++
		}
	}
	return n
}

// checkPoint compares a point query's answers with the oracle's reach.
func checkPoint(answers []string, node int, g graph) error {
	want := g.reach(node)
	if len(answers) != len(want) {
		return fmt.Errorf("path(%d, Y): %d answers, oracle %d", node, len(answers), len(want))
	}
	got := map[pair]bool{}
	for _, a := range answers {
		p, ok := parsePair(a)
		if !ok || p[0] != node {
			return fmt.Errorf("path(%d, Y): unexpected answer %q", node, a)
		}
		got[p] = true
	}
	for _, y := range want {
		if !got[pair{node, y}] {
			return fmt.Errorf("path(%d, Y): answer (%d, %d) missing", node, node, y)
		}
	}
	return nil
}

// checkGlobal checks a read that spans all regions: exactly the
// oracle's answer on the regions whose state is determined, and between
// the list's lower and upper bound on regions another client is
// changing at this moment.
func (p *servePlan) checkGlobal(answers []string, st *oracleState, own [numRegions]bool, view bool) error {
	what, lo, hi := "path", &p.minPath, &p.maxPath
	if view {
		what, lo, hi = "goodPath", &p.minView, &p.maxView
	}
	var got [numRegions]tally
	var floor [numRegions]int
	for _, a := range answers {
		pr, ok := parsePair(a)
		if !ok {
			return fmt.Errorf("%s: unexpected answer %q", what, a)
		}
		r := regionOf(pr[0])
		got[r].add(pr)
		if !own[r] {
			if !hi[r][pr] {
				return fmt.Errorf("%s: answer %s is in no state of region %d", what, a, r)
			}
			if lo[r][pr] {
				floor[r]++
			}
		}
	}
	for r := range got {
		if !own[r] {
			if floor[r] != len(lo[r]) {
				return fmt.Errorf("%s: region %d misses %d answers present in every state", what, r, len(lo[r])-floor[r])
			}
			continue
		}
		if want := st.want(r, view); got[r] != want {
			return fmt.Errorf("%s: region %d has %d answers (hash %x), oracle %d (hash %x)",
				what, r, got[r].n, got[r].sum, want.n, want.sum)
		}
	}
	return nil
}

// instance is one set-up system under test: the child, its clients and
// the oracle's idea of the dataset.
type instance struct {
	child   *child
	bin     string
	args    []string
	logPath string
	clients []*client
	state   *oracleState
	setup   time.Duration
}

func (in *instance) stop() {
	if in == nil {
		return
	}
	for _, c := range in.clients {
		c.close()
	}
	in.child.kill()
}

var allRegions = [numRegions]bool{true, true, true, true}

// ownedBy returns the regions client k of n executes.
func ownedBy(k, n int) (own [numRegions]bool) {
	for r := range own {
		own[r] = r%n == k
	}
	return own
}

// run executes the operations from each client's cursor up to index
// to, or until the deadline when it is set, with one goroutine per
// client, each taking its own regions' operations in list order. It
// advances the cursors and returns each client's samples and how long
// the client was at it.
func (p *servePlan) run(in *instance, cursor []int, to int, deadline time.Time) ([][]sample, []time.Duration) {
	n := len(in.clients)
	out := make([][]sample, n)
	busy := make([]time.Duration, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			own := ownedBy(k, n)
			t0 := time.Now()
			defer func() { busy[k] = time.Since(t0) }()
			for ; cursor[k] < to; cursor[k]++ {
				i := cursor[k]
				if !own[i%numRegions] {
					continue
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				out[k] = append(out[k], p.exec(in.clients[k], in.state, own, p.ops[i]))
			}
		}(k)
	}
	wg.Wait()
	return out, busy
}

// runSerial executes ops[from:to) in list order on one connection.
func (p *servePlan) runSerial(in *instance, from, to int) []sample {
	out := make([]sample, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, p.exec(in.clients[0], in.state, allRegions, p.ops[i]))
	}
	return out
}

// setUp starts a fresh child, loads the dataset, builds the view, and
// runs the warm-up: everything a user waits for before the first timed
// request. The warm-up is serial in the traced run so that the cache's
// contents, and with them every count the run reports, repeat exactly.
func (p *servePlan) setUp(ctx context.Context, cfg runConfig, rep, nclients int, serial bool) (*instance, error) {
	start := time.Now()
	in := &instance{bin: cfg.sqod, state: newOracleState(),
		logPath: filepath.Join(cfg.outDir, fmt.Sprintf("sqod-%s.log", p.name))}
	if p.mixed {
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d", p.name, rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		in.args = []string{"-data-dir", dir, "-fsync", "interval"}
	}
	var err error
	if in.child, err = startChild(ctx, in.bin, in.logPath, in.args...); err != nil {
		return nil, err
	}
	for k := 0; k < nclients; k++ {
		in.clients = append(in.clients, newClient(in.child.base))
	}
	fail := func(err error) (*instance, error) {
		in.stop()
		return nil, fmt.Errorf("%s set-up: %w", p.name, err)
	}
	cl := in.clients[0]
	if status, data, _, err := cl.do("PUT", "/v1/datasets/"+dsName, factsSource(baseFacts(p.mixed))); err != nil || status != 200 {
		return fail(fmt.Errorf("loading dataset: status %d err %v: %.200s", status, err, data))
	}
	if p.mixed {
		body, _ := json.Marshal(map[string]string{"program": viewSrc, "ics": tcICs})
		status, data, _, err := cl.do("POST", "/v1/datasets/"+dsName+"/views/"+viewName, string(body))
		if err != nil || status != 200 {
			return fail(fmt.Errorf("creating view: status %d err %v: %.200s", status, err, data))
		}
		var r queryResp
		if err := json.Unmarshal(data, &r); err != nil {
			return fail(err)
		}
		if err := p.checkGlobal(r.Answers, in.state, allRegions, true); err != nil {
			return fail(err)
		}
	}
	var warm []sample
	if serial {
		warm = p.runSerial(in, 0, p.warm)
	} else {
		perClient, _ := p.run(in, make([]int, nclients), p.warm, time.Time{})
		for _, s := range perClient {
			warm = append(warm, s...)
		}
	}
	for _, s := range warm {
		if s.err != nil {
			return fail(fmt.Errorf("warm-up %s: %w", s.op, s.err))
		}
	}
	in.setup = time.Since(start)
	return in, nil
}

// recover kills the child with SIGKILL, restarts it on the same data
// directory, and returns the time from process start to /readyz. The
// operating system's page cache survives a SIGKILL, so this times
// replay, not a disk.
func (in *instance) recover(ctx context.Context) (time.Duration, error) {
	in.child.kill()
	for _, c := range in.clients {
		c.close()
	}
	c, err := startChild(ctx, in.bin, in.logPath, in.args...)
	if err != nil {
		return 0, err
	}
	in.child = c
	for i := range in.clients {
		in.clients[i] = newClient(c.base)
	}
	return c.readyIn, nil
}

func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil && keep(s) {
			out = append(out, s.latMS)
		}
	}
	sort.Float64s(out)
	return out
}

func isKind(kinds ...opKind) func(sample) bool {
	return func(s sample) bool {
		for _, k := range kinds {
			if s.op.Kind == k {
				return true
			}
		}
		return false
	}
}

// runServe is one run of serve-point or serve-mixed.
func runServe(ctx context.Context, cfg runConfig, mixed bool) (*runOutput, error) {
	p := newServePlan(cfg.seed, mixed)
	out := newRunOutput()
	out.opsSHA = p.sha
	nclients := min(runtime.NumCPU(), 4)
	out.notef("%s: closed loop, %d clients, %d generated operations, sha256 %s", p.name, nclients, len(p.ops), p.sha)

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var in *instance
	defer func() { in.stop() }()
	var setups []float64
	var setupCal calibrator
	for rep := 0; rep < reps; rep++ {
		in.stop()
		var err error
		if in, err = p.setUp(ctx, cfg, rep, nclients, cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, in.setup.Seconds())
		runtime.GC()
		setupCal.sample(refSetupReps)
	}
	out.set("setup_s", median(setups)/setupCal.factor())
	out.notef("set-up %d times: %.3f s each (median %.3f, host factor %.3f)", reps, setups, median(setups), setupCal.factor())
	out.attempted += p.warm

	next := p.warm
	seconds := cfg.seconds
	if cfg.trace {
		began := time.Now()
		replay := pointReplay
		if mixed {
			replay = mixedReplay
		}
		if err := p.traced(ctx, cfg, in, out, next, next+replay); err != nil {
			return nil, err
		}
		next += replay
		// The traced run still measures the workload's own end-to-end
		// numbers, with whatever the replay left of its time.
		seconds = max(cfg.seconds-time.Since(began).Seconds(), cfg.seconds/3)
	}

	before, err := in.child.scrape()
	if err != nil {
		return nil, err
	}
	// The timed stretch, in segments of a second with a sample of the
	// calibration kernel between them, while the child is idle.
	cursor := make([]int, nclients)
	for k := range cursor {
		cursor[k] = next
	}
	perClient := make([][]sample, nclients)
	busy := make([]time.Duration, nclients)
	var cal calibrator
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	for now := start; now.Before(end); now = time.Now() {
		samples, took := p.run(in, cursor, len(p.ops), minTime(now.Add(segment), end))
		ran := 0
		for k := range samples {
			for i := range samples[k] {
				samples[k][i].answers = nil // checked already; only the replay compares them again
			}
			perClient[k] = append(perClient[k], samples[k]...)
			busy[k] += took[k]
			ran += len(samples[k])
		}
		if ran == 0 {
			break // the list is exhausted
		}
		// The harness is not the process under test here, so it can
		// collect its own garbage first and keep the collector out of the
		// kernel's timings.
		runtime.GC()
		cal.sample(refReps)
	}
	wall := time.Since(start).Seconds()
	after, err := in.child.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(in.child.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	// Throughput is the sum of the clients' own: each one's correct
	// operations over the time it was sending, which leaves out the
	// pauses and the wait for the other client at a segment's end.
	var all []sample
	var opsPerS float64
	correct := 0
	for k, samples := range perClient {
		ok := 0
		for _, s := range samples {
			out.attempted++
			if s.err != nil {
				out.fail("%s: %v", s.op, s.err)
			} else {
				ok++
			}
		}
		all = append(all, samples...)
		correct += ok
		if busy[k] > 0 {
			opsPerS += float64(ok) / busy[k].Seconds()
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	rejected, timeouts := delta("sqod_admission_rejections_total"), delta("sqod_query_timeouts_total")
	if bad := non2xx(after) - non2xx(before); bad > 0 {
		out.notef("child reports %v non-2xx responses (%v rejected with 429, %v timed out)", bad, rejected, timeouts)
	}

	// Timings of the timed stretch are reported at nominal host speed.
	f := cal.factor()
	at := func(sorted []float64, pct float64) float64 { return percentile(sorted, pct) / f }
	points := latencies(all, isKind(opPoint))
	out.set("ops_per_s", opsPerS*f)
	out.set("query_p50_ms", at(points, 50))
	out.set("query_p95_ms", at(points, 95))
	out.set("peak_rss_mb", rss)
	out.set("host.slowdown", f)
	out.set("server.query_p99_ms", at(points, 99))
	out.set("server.rejected_429", rejected)
	out.set("server.timeouts", timeouts)
	out.notef("timed %.2f s: %d operations, %d correct, %.1f a second; host factor %.3f (%d kernel samples)",
		wall, len(all), correct, opsPerS, f, len(cal.ms))
	out.notef("as measured: point queries n=%d p50 %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f ms (highest percentile with ten samples beyond: p%g)",
		len(points), percentile(points, 50), percentile(points, 75), percentile(points, 90),
		percentile(points, 95), percentile(points, 99), highestSupported(len(points)))
	if !supported(len(points), 95) {
		out.notef("warning: %d point queries do not support a p95", len(points))
	}

	if mixed {
		updates := latencies(all, isKind(opAdd, opRetract))
		views := latencies(all, isKind(opView))
		fulls := latencies(all, isKind(opFull))
		lints := latencies(all, isKind(opLint))
		out.set("update_p50_ms", at(updates, 50))
		out.set("update_p95_ms", at(updates, 95))
		out.set("view_read_p50_ms", at(views, 50))
		out.set("server.full_p50_ms", at(fulls, 50))
		out.set("server.lint_p50_ms", at(lints, 50))
		out.notef("as measured: updates n=%d p50 %.3f p95 %.3f ms (supports p%g); view reads n=%d p50 %.3f ms; full queries n=%d p50 %.3f ms; lint n=%d p50 %.3f ms",
			len(updates), percentile(updates, 50), percentile(updates, 95), highestSupported(len(updates)),
			len(views), percentile(views, 50), len(fulls), percentile(fulls, 50), len(lints), percentile(lints, 50))

		// Crash and recover: every acknowledged write must be there.
		took, err := in.recover(ctx)
		if err != nil {
			return nil, err
		}
		out.set("recovery_s", took.Seconds()/f)
		out.attempted += 2
		status, data, _, err := in.clients[0].do("GET", "/v1/datasets", "")
		var infos []struct {
			Name  string `json:"name"`
			Facts int    `json:"facts"`
		}
		wantFacts := in.state.edges() + numChains*pointsPerChain
		if err == nil && status == 200 {
			err = json.Unmarshal(data, &infos)
		}
		if err != nil || len(infos) != 1 || infos[0].Facts != wantFacts {
			out.fail("after recovery: datasets %+v (status %d, err %v), oracle has %d facts", infos, status, err, wantFacts)
		}
		if s := p.exec(in.clients[0], in.state, allRegions, op{Kind: opView}); s.err != nil {
			out.fail("after recovery: %v", s.err)
		}
		recovered, _ := in.child.scrape()
		out.notef("SIGKILL + restart: ready after %.3f s (sqod reports %.3f s of recovery), %d facts and the view's answers as the oracle has them",
			took.Seconds(), recovered["sqod_recovery_seconds"], wantFacts)
	}
	return out, nil
}

// traced replays ops[from:to) one at a time through the child and
// through two shadows — one recording spans, one not — and turns the
// spans into the per-layer metrics.
func (p *servePlan) traced(ctx context.Context, cfg runConfig, in *instance, out *runOutput, from, to int) error {
	tr := newTracer()
	shadows := [2]*shadow{}
	for i, name := range []string{"plain", "traced"} {
		var st *store.Store
		if p.mixed {
			dir := filepath.Join(cfg.outDir, fmt.Sprintf("shadow-%s-%s", p.name, name))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			var err error
			end := func() {}
			if i == 1 {
				end = tr.start("store.open")
			}
			st, _, err = store.Open(dir, store.Options{Fsync: store.FsyncInterval, CheckpointEvery: 4096})
			end()
			if err != nil {
				return err
			}
			defer st.Close()
		}
		sh := newShadow(nil, st)
		if i == 1 {
			sh.tr = tr
		}
		tr.setOp(-1) // set-up spans
		if err := sh.createDataset(factsSource(baseFacts(p.mixed))); err != nil {
			return err
		}
		if p.mixed {
			if err := sh.createView(ctx, viewSrc, tcICs); err != nil {
				return err
			}
		}
		sh.tr = nil // the warm-up is not traced either
		for i := 0; i < from; i++ {
			if _, err := sh.exec(ctx, p.ops[i]); err != nil {
				return fmt.Errorf("shadow warm-up %s: %w", p.ops[i], err)
			}
		}
		sh.agg = shadowAgg{}
		sh.parsed = 0
		if st != nil {
			sh.walBase = st.Counters().Bytes
		}
		shadows[i] = sh
	}
	plain, traced := shadows[0], shadows[1]
	traced.tr = tr

	cacheBefore, err := in.child.scrape()
	if err != nil {
		return err
	}
	var (
		httpMS, plainMS, tracedMS float64
		samples                   []sample
		gaps                      []float64 // point queries: client latency minus the shadow's attributed time
	)
	for i := from; i < to; i++ {
		o := p.ops[i]
		s := p.exec(in.clients[0], in.state, allRegions, o)
		out.attempted++
		if s.err != nil {
			out.fail("replay %s: %v", o, s.err)
		}
		samples = append(samples, s)
		httpMS += s.latMS

		runPlain := func() error {
			t0 := time.Now()
			_, err := plain.exec(ctx, o)
			plainMS += float64(time.Since(t0)) / 1e6
			return err
		}
		// Alternate which shadow goes first, so that neither always
		// finds the other's data warm in the processor's caches.
		if i%2 == 0 {
			err = runPlain()
		}
		tr.setOp(i)
		t0 := time.Now()
		end := tr.start("op")
		answers, terr := traced.exec(ctx, o)
		end()
		took := float64(time.Since(t0)) / 1e6
		tracedMS += took
		if i%2 == 1 {
			err = runPlain()
		}
		if err = errors.Join(err, terr); err != nil {
			return fmt.Errorf("shadow %s: %w", o, err)
		}
		if s.err == nil && !sameAnswers(answers, s.answers) {
			out.fail("replay %s: shadow has %d answers, child %d", o, len(answers), len(s.answers))
		}
		if o.Kind == opPoint {
			gaps = append(gaps, s.latMS-took)
		}
	}
	cacheAfter, err := in.child.scrape()
	if err != nil {
		return err
	}

	n := float64(to - from)
	spans := tr.spans
	var replayed []span
	for _, s := range spans {
		if s.Op >= from {
			replayed = append(replayed, s)
		}
	}
	l := layersOf(replayed)
	setUp := layersOf(spans[:len(spans)-len(replayed)])
	attributedMS := float64(l.attributed()) / 1e6

	a := traced.agg
	points := latencies(samples, isKind(opPoint))
	var optMS, evalMS []float64
	for _, s := range samples {
		if s.op.Kind == opPoint && s.err == nil {
			optMS, evalMS = append(optMS, s.optimizeMS), append(evalMS, s.evalMS)
		}
	}
	hits := cacheAfter["sqod_cache_hits_total"] - cacheBefore["sqod_cache_hits_total"]
	misses := cacheAfter["sqod_cache_misses_total"] - cacheBefore["sqod_cache_misses_total"]

	setPipelineMetrics(out, l, a, traced.parsed, n)
	if hits+misses > 0 {
		out.set("server.cache_hit_ratio", hits/(hits+misses))
	}
	out.set("server.optimize_ms_per_op", mean(optMS))
	out.set("server.eval_ms_per_op", mean(evalMS))
	out.set("server.snapshot_us_per_op", l.us("server.snapshot")/n)
	out.set("server.unattributed_ms_per_op", median(gaps))
	setEvalMetrics(out, a, l.ns["eval.fixpoint"]+l.ns["eval.query"], n)
	fixed, err := evalFixedCost(ctx, traced.db)
	if err != nil {
		return err
	}
	out.set("eval.fixed_cost_us", fixed)
	out.set("incr.materialize_ms", setUp.us("incr.materialize")/1e3)
	out.set("incr.apply_add_us", l.perCall("incr.apply_add"))
	out.set("incr.apply_retract_us", l.perCall("incr.apply_retract"))
	out.set("incr.cascade_retract_ms", l.perCall("incr.apply_cascade")/1e3)
	out.set("incr.answers_us", l.perCall("incr.answers"))
	if a.updates > 0 {
		out.set("incr.changed_per_update", float64(a.changed)/float64(a.updates))
	}
	if p.mixed {
		out.set("incr.rebuilds", float64(traced.view.Stats().FullRebuilds))
		out.set("store.append_us_per_op", l.us("store.append")/n)
		c := traced.st.Counters()
		if a.updates > 0 {
			out.set("store.wal_bytes_per_update", float64(c.Bytes-traced.walBase)/float64(a.updates))
		}
		// Reopen the shadow's store as a restart would find it, then
		// checkpoint it.
		dir := traced.st.Dir()
		if err := traced.st.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		st, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncInterval})
		if err != nil {
			return err
		}
		out.set("store.open_ms", float64(time.Since(t0))/1e6)
		out.set("store.replayed_records", float64(rec.WALRecords))
		t0 = time.Now()
		err = st.Checkpoint()
		out.set("store.checkpoint_ms", float64(time.Since(t0))/1e6)
		out.set("store.checkpoints", float64(c.Checkpoints))
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	out.set("trace.overhead_share", (tracedMS-plainMS)/plainMS)
	out.set("trace.attributed_share", attributedMS/httpMS)
	out.notef("replayed %d operations serially: client %.3f ms/op, shadow %.3f ms/op untraced and %.3f traced; point queries n=%d p50 %.3f ms",
		to-from, httpMS/n, plainMS/n, tracedMS/n, len(points), percentile(points, 50))
	out.notef("attributed %.1f%% of the client's time to layers; unattributed (HTTP, decode, admission, logging, locks) %.1f%%",
		100*attributedMS/httpMS, 100*(1-attributedMS/httpMS))
	noteLayers(out, l)
	return writeTrace(out, tr, cfg.outDir, p.name)
}

func sameAnswers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exec runs one operation through the shadow and returns its answers.
func (s *shadow) exec(ctx context.Context, o op) ([]string, error) {
	switch o.Kind {
	case opPoint:
		m, err := s.query(ctx, pointSrc(o.Node), tcICs)
		if err != nil {
			return nil, err
		}
		return m.Answers, nil
	case opFull:
		m, err := s.query(ctx, fullSrc, tcICs)
		if err != nil {
			return nil, err
		}
		return m.Answers, nil
	case opAdd, opRetract:
		_, _, err := s.update(ctx, o)
		return nil, err
	case opView:
		return s.viewRead()
	default:
		n, err := s.lintRun(ctx, fullSrc, tcICs)
		return []string{fmt.Sprint(n, " findings")}, err
	}
}

// evalFixedCost is the median time, in µs, of a QueryCtx over db that
// can derive nothing: what every evaluation pays before its first
// useful probe (EDB load, plan, one round).
func evalFixedCost(ctx context.Context, db *eval.DB) (float64, error) {
	prog, err := parser.ParseProgram("none(X, Y) :- absent(X), edge(X, Y).\n?- none.\n")
	if err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		tuples, _, err := eval.QueryCtx(ctx, prog, db, eval.DefaultOptions())
		us = append(us, float64(time.Since(t0))/1e3)
		if err != nil || len(tuples) != 0 {
			return 0, errors.Join(err, fmt.Errorf("fixed-cost probe derived %d tuples", len(tuples)))
		}
	}
	return median(us), nil
}
