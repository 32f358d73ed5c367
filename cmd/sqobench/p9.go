package main

// P9: horizontal scale-out — the cluster scatter-gather path, pinned to
// determinism the same way the rest of the suite is (the run aborts if
// answers diverge):
//
//   - serve-scatter: an in-process cluster (real internal/server
//     workers behind httptest listeners, fronted by the real
//     shard.Coordinator — the same wiring as `sqod -coordinator`)
//     serves a fixed scattered-query workload over K datasets at 1, 2,
//     and 4 nodes. Reported: aggregate wall clock and p99 request
//     latency (noisy, tolerance-gated by benchdiff), plus the request
//     and merged-answer counts (deterministic, exact-gated). The
//     merged answers must be identical at every node count — placement
//     moves data, never answers.
//
// With -out the rows are written as JSON (committed as BENCH_9.json
// for regression tracking).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

func quietBenchLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

type p9Row struct {
	Workload string `json:"workload"`
	Config   string `json:"config"` // "nodes=2"
	Requests int64  `json:"requests,omitempty"`
	Answers  int64  `json:"answers"`
	WallNs   int64  `json:"wall_ns"`
	P99Ns    int64  `json:"p99_ns,omitempty"`
	qps      float64
}

type p9Report struct {
	CPUs   int     `json:"cpus"`
	GOOS   string  `json:"goos"`
	GOARCH string  `json:"goarch"`
	Go     string  `json:"go_version"`
	Rows   []p9Row `json:"results"`
}

const p9Program = `path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
?- path.`

// p9Datasets builds K disjoint chain datasets in datalog source form.
func p9Datasets(k, chainLen int) map[string]string {
	out := make(map[string]string, k)
	for c := 0; c < k; c++ {
		var b strings.Builder
		base := c * 10000
		for i := 0; i < chainLen; i++ {
			fmt.Fprintf(&b, "edge(%d, %d).\n", base+i, base+i+1)
		}
		out[fmt.Sprintf("shardbench-%d", c)] = b.String()
	}
	return out
}

// p9Cluster measures the scattered-query workload at one node count
// and returns the row plus the sorted merged answers for cross-config
// verification.
func p9Cluster(nodes, requests, concurrency int, datasets map[string]string) (p9Row, []string) {
	var peers []string
	var workers []*httptest.Server
	for i := 0; i < nodes; i++ {
		// Generous admission control: the benchmark measures the scatter
		// path, not 429s from the per-worker in-flight cap (which
		// defaults to 2x CPUs — far below concurrency x datasets-per-
		// scatter on small CI hosts).
		ws := httptest.NewServer(server.New(server.Config{Logger: quietBenchLogger(), MaxInflight: 256}).Handler())
		workers = append(workers, ws)
		peers = append(peers, ws.URL)
	}
	defer func() {
		for _, ws := range workers {
			ws.Close()
		}
	}()
	coord, err := shard.NewCoordinator(shard.Config{Peers: peers, Logger: quietBenchLogger()})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	cs := httptest.NewServer(coord.Handler())
	defer cs.Close()

	names := make([]string, 0, len(datasets))
	for name, facts := range datasets {
		names = append(names, name)
		req, _ := http.NewRequest(http.MethodPut, cs.URL+"/v1/datasets/"+name, strings.NewReader(facts))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("P9: PUT %s via coordinator: %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	sort.Strings(names)
	body, _ := json.Marshal(map[string]any{"program": p9Program, "datasets": names})

	type result struct {
		latency time.Duration
		answers int64
		merged  []string
	}
	oneQuery := func() result {
		start := time.Now()
		resp, err := http.Post(cs.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var sr struct {
			Answers  []string `json:"answers"`
			Degraded bool     `json:"degraded"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || sr.Degraded {
			log.Fatalf("P9: scattered query failed (status %d, degraded %v)", resp.StatusCode, sr.Degraded)
		}
		return result{latency: time.Since(start), answers: int64(len(sr.Answers)), merged: sr.Answers}
	}

	warm := oneQuery() // warm the rewrite caches on every worker

	latencies := make([]time.Duration, requests)
	var answers int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	wallStart := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := oneQuery()
				mu.Lock()
				latencies[i] = r.latency
				answers += r.answers
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(wallStart)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[(len(latencies)*99)/100]
	row := p9Row{
		Workload: "serve-scatter",
		Config:   fmt.Sprintf("nodes=%d", nodes),
		Requests: int64(requests),
		Answers:  warm.answers, // per-query merged answers: deterministic, exact-gated
		WallNs:   wall.Nanoseconds(),
		P99Ns:    p99.Nanoseconds(),
		qps:      float64(requests) / wall.Seconds(),
	}
	if answers != warm.answers*int64(requests) {
		log.Fatalf("P9: nodes=%d answer counts varied across requests", nodes)
	}
	return row, warm.merged
}

func runP9() {
	nodeCounts := []int{1, 2, 4}
	k, chainLen := 8, 30
	requests, concurrency := 200, 8
	if *quick {
		k, chainLen = 4, 12
		requests, concurrency = 40, 4
	}

	report := p9Report{
		CPUs:   runtime.NumCPU(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
	}

	datasets := p9Datasets(k, chainLen)
	header("workload", "config", "requests", "answers", "qps", "p99", "wall")
	var baseMerged []string
	for i, n := range nodeCounts {
		row, merged := p9Cluster(n, requests, concurrency, datasets)
		if i == 0 {
			baseMerged = merged
		} else if !equalStringSlices(merged, baseMerged) {
			log.Fatalf("P9: nodes=%d merged answers diverge from nodes=%d", n, nodeCounts[0])
		}
		report.Rows = append(report.Rows, row)
		fmt.Printf("%-14s | %-9s | %8d | %7d | %7.0f | %8v | %8v\n",
			row.Workload, row.Config, row.Requests, row.Answers, row.qps,
			time.Duration(row.P99Ns).Round(10*time.Microsecond),
			time.Duration(row.WallNs).Round(time.Millisecond))
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
