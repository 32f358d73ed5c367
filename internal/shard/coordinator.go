package shard

// Coordinator is the cluster front door for a fleet of sqod workers:
// it owns no data itself. Datasets are placed on workers by rendezvous
// hashing over the dataset name (Place), so every coordinator — and a
// restarted replacement with the same -peers flag in any order —
// agrees on ownership with no coordination state. Mutations are
// proxied to the owner; multi-dataset queries scatter to each
// dataset's owner with per-shard deadlines and bounded, jittered
// retries, then gather into one response.
//
// Failure is explicit, never silent: when a shard cannot be reached
// the gathered response still carries every surviving shard's answers,
// plus degraded=true and the failed peer list, so callers can tell a
// complete answer from a partial one. Liveness (/healthz) and
// readiness (/readyz, true while any worker is ready) follow the
// worker convention; /v1/cluster reports per-peer probe verdicts and
// answers placement questions.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/jsonresp"
)

// Config tunes the coordinator; Peers is required, everything else
// has serviceable defaults.
type Config struct {
	// Peers are the worker base URLs (e.g. http://10.0.0.7:8080).
	// Order is irrelevant to placement.
	Peers []string
	// PeerTimeout bounds one upstream attempt. Default: 10s.
	PeerTimeout time.Duration
	// Retries is the number of additional attempts after a retryable
	// failure (transport error, 429/502/503/504). Default: 2.
	Retries int
	// RetryBackoff is the base delay before the first retry; it doubles
	// per attempt with ±50% jitter so a struggling worker is not hit by
	// synchronized retry waves. Default: 50ms.
	RetryBackoff time.Duration
	// ProbeInterval is the background health-probe period. Default: 2s.
	ProbeInterval time.Duration
	// Logger receives structured logs; default slog.Default().
	Logger *slog.Logger
	// Client issues upstream requests; default a fresh http.Client
	// (per-request contexts carry the deadlines).
	Client *http.Client
}

// Coordinator scatter-gathers over a fixed peer set. Create with
// NewCoordinator, serve Handler, Start the prober, Close on shutdown.
type Coordinator struct {
	cfg     Config
	peers   []string
	log     *slog.Logger
	client  *http.Client
	metrics *Metrics

	mu      sync.Mutex
	healthy map[string]bool
	probed  bool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewCoordinator validates cfg and returns a coordinator (prober not
// yet running; call Start, or ProbeNow for a one-shot).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one peer")
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	peers := make([]string, 0, len(cfg.Peers))
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		if seen[p] {
			return nil, fmt.Errorf("shard: duplicate peer %q", p)
		}
		seen[p] = true
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one peer")
	}
	return &Coordinator{
		cfg:     cfg,
		peers:   peers,
		log:     cfg.Logger,
		client:  cfg.Client,
		metrics: NewMetrics(),
		healthy: map[string]bool{},
		stop:    make(chan struct{}),
	}, nil
}

// Metrics exposes the coordinator's registry (for tests and embedding).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Peers returns the normalized peer set.
func (c *Coordinator) Peers() []string { return append([]string(nil), c.peers...) }

// Owner returns the peer that owns the named dataset.
func (c *Coordinator) Owner(name string) string { return Place(name, c.peers) }

// Start launches the background health prober. Close stops it.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PeerTimeout)
				c.ProbeNow(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the prober and waits for it.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// ProbeNow probes every peer's /readyz once, concurrently, and updates
// the health table and sqod_peer_unhealthy.
func (c *Coordinator) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	verdicts := make([]bool, len(c.peers))
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, c.cfg.PeerTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(rctx, http.MethodGet, p+"/readyz", nil)
			if err != nil {
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			verdicts[i] = resp.StatusCode == http.StatusOK
		}(i, p)
	}
	wg.Wait()
	c.mu.Lock()
	for i, p := range c.peers {
		was, known := c.healthy[p]
		c.healthy[p] = verdicts[i]
		if known && was != verdicts[i] {
			c.log.Info("peer health changed", "peer", p, "healthy", verdicts[i])
		}
	}
	c.probed = true
	c.mu.Unlock()
	for i, p := range c.peers {
		c.metrics.SetUnhealthy(p, !verdicts[i])
	}
}

// healthSnapshot returns the last probe's verdicts, probing once
// synchronously if no probe has run yet.
func (c *Coordinator) healthSnapshot(ctx context.Context) map[string]bool {
	c.mu.Lock()
	probed := c.probed
	c.mu.Unlock()
	if !probed {
		c.ProbeNow(ctx)
	}
	out := map[string]bool{}
	c.mu.Lock()
	for p, h := range c.healthy {
		out[p] = h
	}
	c.mu.Unlock()
	return out
}

// --- upstream requests ------------------------------------------------

// peerResult is one upstream exchange: a transport failure leaves err
// set and status 0; otherwise status/contentType/body mirror the
// worker's response.
type peerResult struct {
	status      int
	contentType string
	body        []byte
	err         error
}

// retryableStatus: 502/503/504 mean the worker (or something in
// front of it) could not serve the attempt; 429 means admission
// control rejected the request before processing it. All four leave
// the worker's state untouched, so retrying is safe even for
// mutations.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout || code == http.StatusTooManyRequests
}

// do issues method path against peer with per-attempt deadlines and
// bounded jittered retries on transport errors and 429/502/503/504. Every
// attempt's outcome lands in sqod_peer_requests_total.
func (c *Coordinator) do(ctx context.Context, peer, method, path string, body []byte) peerResult {
	var last peerResult
	for attempt := 0; ; attempt++ {
		rctx, cancel := context.WithTimeout(ctx, c.cfg.PeerTimeout)
		req, err := http.NewRequestWithContext(rctx, method, peer+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return peerResult{err: err}
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.client.Do(req)
		if err != nil {
			cancel()
			c.metrics.ObservePeer(peer, 0)
			last = peerResult{err: err}
		} else {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			cancel()
			if rerr != nil {
				c.metrics.ObservePeer(peer, 0)
				last = peerResult{err: rerr}
			} else {
				c.metrics.ObservePeer(peer, resp.StatusCode)
				last = peerResult{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: b}
				if !retryableStatus(resp.StatusCode) {
					return last
				}
			}
		}
		if attempt >= c.cfg.Retries || ctx.Err() != nil {
			return last
		}
		// Exponential backoff with ±50% jitter.
		base := c.cfg.RetryBackoff << uint(attempt)
		d := base/2 + time.Duration(rand.Int63n(int64(base)))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return last
		}
	}
}

// --- HTTP surface -----------------------------------------------------

type coordErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Peer  string `json:"peer,omitempty"`
}

func coordJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Handler returns the coordinator's routed HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		health := c.healthSnapshot(r.Context())
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, ok := range health {
			if ok {
				fmt.Fprintln(w, "ok")
				return
			}
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no ready peers")
	})
	mux.Handle("GET /metrics", c.metrics)
	mux.HandleFunc("GET /v1/cluster", c.handleCluster)
	mux.HandleFunc("GET /v1/datasets", c.handleDatasetList)
	for _, route := range []string{
		"PUT /v1/datasets/{name}",
		"POST /v1/datasets/{name}",
		"DELETE /v1/datasets/{name}",
		"POST /v1/datasets/{name}/facts",
		"DELETE /v1/datasets/{name}/facts",
		"POST /v1/datasets/{name}/views/{view}",
		"GET /v1/datasets/{name}/views/{view}",
		"DELETE /v1/datasets/{name}/views/{view}",
	} {
		mux.HandleFunc(route, c.proxyToOwner)
	}
	mux.HandleFunc("POST /v1/query", c.handleQuery)
	return mux
}

// handleCluster reports the peer set with last-probe verdicts;
// ?place=<dataset> additionally answers a placement question.
func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	health := c.healthSnapshot(r.Context())
	type peerInfo struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	resp := struct {
		Peers     []peerInfo        `json:"peers"`
		Placement map[string]string `json:"placement,omitempty"`
	}{}
	for _, p := range c.peers {
		resp.Peers = append(resp.Peers, peerInfo{URL: p, Healthy: health[p]})
	}
	if name := r.URL.Query().Get("place"); name != "" {
		resp.Placement = map[string]string{"dataset": name, "peer": c.Owner(name)}
	}
	coordJSON(w, http.StatusOK, resp)
}

// proxyToOwner forwards a single-dataset operation to the peer that
// owns the dataset and relays the response verbatim. The owning peer
// is exposed in X-Sqod-Peer either way.
func (c *Coordinator) proxyToOwner(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	owner := c.Owner(name)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: err.Error(), Code: "bad_request"})
		return
	}
	res := c.do(r.Context(), owner, r.Method, r.URL.Path, body)
	w.Header().Set("X-Sqod-Peer", owner)
	if res.err != nil {
		c.log.Warn("proxy failed", "peer", owner, "path", r.URL.Path, "err", res.err)
		coordJSON(w, http.StatusBadGateway, coordErrorBody{
			Error: fmt.Sprintf("dataset owner unreachable: %v", res.err),
			Code:  "peer_unavailable",
			Peer:  owner,
		})
		return
	}
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// handleDatasetList scatters the list to every peer and gathers an
// annotated union. Unreachable peers degrade the response explicitly.
func (c *Coordinator) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	results := make([]peerResult, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			results[i] = c.do(r.Context(), p, http.MethodGet, "/v1/datasets", nil)
		}(i, p)
	}
	wg.Wait()
	c.metrics.ObserveScatter(time.Since(start))

	var datasets []map[string]any
	var failed []string
	for i, p := range c.peers {
		res := results[i]
		if res.err != nil || res.status != http.StatusOK {
			failed = append(failed, p)
			continue
		}
		var items []map[string]any
		if err := json.Unmarshal(res.body, &items); err != nil {
			failed = append(failed, p)
			continue
		}
		for _, it := range items {
			it["peer"] = p
			datasets = append(datasets, it)
		}
	}
	sort.Slice(datasets, func(i, j int) bool {
		a, _ := datasets[i]["name"].(string)
		b, _ := datasets[j]["name"].(string)
		return a < b
	})
	coordJSON(w, http.StatusOK, struct {
		Datasets    []map[string]any `json:"datasets"`
		Degraded    bool             `json:"degraded"`
		FailedPeers []string         `json:"failed_peers,omitempty"`
	}{Datasets: orEmpty(datasets), Degraded: len(failed) > 0, FailedPeers: failed})
}

func orEmpty(ds []map[string]any) []map[string]any {
	if ds == nil {
		return []map[string]any{}
	}
	return ds
}

// shardAnswer is one dataset's slice of a scattered query.
type shardAnswer struct {
	Dataset     string   `json:"dataset"`
	Peer        string   `json:"peer"`
	AnswerCount int      `json:"answer_count"`
	Answers     []string `json:"answers,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// handleQuery routes queries. A request with "dataset" (or inline
// facts only) proxies like any single-dataset operation. A request
// with "datasets": [...] scatters: each named dataset is queried on
// its owning peer with the same program, and the per-shard answers are
// gathered into a deduplicated, sorted union — the same answer set a
// single node holding all the facts would return for queries that
// don't join across datasets. Failed shards never vanish: the response
// carries degraded plus the failed peer and dataset lists alongside
// every surviving shard's answers.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: err.Error(), Code: "bad_request"})
		return
	}
	var req map[string]any
	if err := json.Unmarshal(raw, &req); err != nil {
		coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: fmt.Sprintf("decoding JSON: %v", err), Code: "bad_request"})
		return
	}
	list, scattered := req["datasets"].([]any)
	if !scattered {
		// Single-dataset (or inline-facts) query: proxy to the owner,
		// or to any healthy peer when no dataset pins placement.
		peer := ""
		if name, _ := req["dataset"].(string); name != "" {
			peer = c.Owner(name)
		} else {
			health := c.healthSnapshot(r.Context())
			for _, p := range c.peers {
				if health[p] {
					peer = p
					break
				}
			}
			if peer == "" {
				peer = c.peers[0]
			}
		}
		res := c.do(r.Context(), peer, http.MethodPost, "/v1/query", raw)
		w.Header().Set("X-Sqod-Peer", peer)
		if res.err != nil {
			coordJSON(w, http.StatusBadGateway, coordErrorBody{
				Error: fmt.Sprintf("peer unreachable: %v", res.err), Code: "peer_unavailable", Peer: peer})
			return
		}
		if res.contentType != "" {
			w.Header().Set("Content-Type", res.contentType)
		}
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
		return
	}

	names := make([]string, 0, len(list))
	for _, v := range list {
		s, ok := v.(string)
		if !ok || s == "" {
			coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: "datasets must be non-empty strings", Code: "bad_request"})
			return
		}
		names = append(names, s)
	}
	if len(names) == 0 {
		coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: "datasets is empty", Code: "bad_request"})
		return
	}

	start := time.Now()
	shards := make([]shardAnswer, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			shards[i] = c.queryShard(r.Context(), req, name)
		}(i, name)
	}
	wg.Wait()
	c.metrics.ObserveScatter(time.Since(start))

	var lists [][]string
	var failedPeers, failedDatasets []string
	seenPeer := map[string]bool{}
	for _, sh := range shards {
		if sh.Error != "" {
			failedDatasets = append(failedDatasets, sh.Dataset)
			if !seenPeer[sh.Peer] {
				seenPeer[sh.Peer] = true
				failedPeers = append(failedPeers, sh.Peer)
			}
			continue
		}
		lists = append(lists, sh.Answers)
	}
	answers := mergeSorted(lists)
	sort.Strings(failedPeers)
	sort.Strings(failedDatasets)
	jsonresp.Write(w, http.StatusOK, struct {
		Answers        []string      `json:"answers"`
		AnswerCount    int           `json:"answer_count"`
		Degraded       bool          `json:"degraded"`
		FailedPeers    []string      `json:"failed_peers,omitempty"`
		FailedDatasets []string      `json:"failed_datasets,omitempty"`
		Shards         []shardAnswer `json:"shards"`
	}{
		Answers:        []string{}, // streamed below
		AnswerCount:    len(answers),
		Degraded:       len(failedDatasets) > 0,
		FailedPeers:    failedPeers,
		FailedDatasets: failedDatasets,
		Shards:         shards,
	}, func(a *jsonresp.Array) {
		for _, s := range answers {
			if !a.String(s) {
				return
			}
		}
	})
}

// mergeSorted returns the sorted union of lists, each value once: a
// k-way merge that drops equal neighbours, a worker's answers being
// sorted. One that is not (a worker at an older version) is sorted first,
// on a copy: the response echoes each shard's answers as they came.
func mergeSorted(lists [][]string) []string {
	total := 0
	for i, l := range lists {
		if !sort.StringsAreSorted(l) {
			l = append([]string(nil), l...)
			sort.Strings(l)
			lists[i] = l
		}
		total += len(l)
	}
	out := make([]string, 0, total)
	for {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || l[0] < lists[best][0]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		if s := lists[best][0]; len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
		lists[best] = lists[best][1:]
	}
}

// queryShard runs the scattered request against one dataset's owner.
func (c *Coordinator) queryShard(ctx context.Context, req map[string]any, name string) shardAnswer {
	owner := c.Owner(name)
	sub := make(map[string]any, len(req))
	for k, v := range req {
		if k == "datasets" {
			continue
		}
		sub[k] = v
	}
	sub["dataset"] = name
	body, err := json.Marshal(sub)
	if err != nil {
		return shardAnswer{Dataset: name, Peer: owner, Error: err.Error()}
	}
	res := c.do(ctx, owner, http.MethodPost, "/v1/query", body)
	if res.err != nil {
		return shardAnswer{Dataset: name, Peer: owner, Error: res.err.Error()}
	}
	if res.status != http.StatusOK {
		msg := fmt.Sprintf("peer answered %d", res.status)
		var eb coordErrorBody
		if json.Unmarshal(res.body, &eb) == nil && eb.Error != "" {
			msg = fmt.Sprintf("peer answered %d: %s", res.status, eb.Error)
		}
		return shardAnswer{Dataset: name, Peer: owner, Error: msg}
	}
	var qr struct {
		Answers []string `json:"answers"`
	}
	if err := json.Unmarshal(res.body, &qr); err != nil {
		return shardAnswer{Dataset: name, Peer: owner, Error: fmt.Sprintf("decoding peer response: %v", err)}
	}
	return shardAnswer{Dataset: name, Peer: owner, AnswerCount: len(qr.Answers), Answers: qr.Answers}
}
