// Command bench is the repository's benchmark: four workloads from the
// HTTP socket down to the query tree, end-to-end metrics measured with
// tracing off, per-layer metrics from a separate traced run, every
// answer checked against an oracle that does not use the engine. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench --workload serve-point --seed 1 --seconds 20 --trace 0   one run, result as the last line
//	bench                                                           every workload, -runs timed runs + one traced run each
//	bench -compare old.json new.json                                judge two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // scratch: child logs, data directories, traces
	sqod    string // the daemon's binary
}

// runOutput is what one run produces.
type runOutput struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	opsSHA            string
}

func newRunOutput() *runOutput { return &runOutput{metrics: map[string]float64{}} }

func (o *runOutput) set(name string, v float64) {
	if _, ok := specByName(name); !ok {
		panic("bench: metric " + name + " is not in the tables of metrics.go")
	}
	o.metrics[name] = v
}

func (o *runOutput) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps the first few reasons.
func (o *runOutput) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		o.notef("FAILED: "+format, args...)
	}
}

// metricValue and result are the driver's output format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload once and shapes the result: every
// gated end-to-end metric for an untraced run, every per-layer metric
// (zero where the workload does not exercise the layer) for a traced
// one.
func runWorkload(ctx context.Context, name string, cfg runConfig) (*runOutput, *result, error) {
	var out *runOutput
	var err error
	switch name {
	case wServePoint:
		out, err = runServe(ctx, cfg, false)
	case wServeMixed:
		out, err = runServe(ctx, cfg, true)
	case wEvalFixpoint:
		out, err = runEvalFixpoint(ctx, cfg)
	case wOptimizeCold:
		out, err = runOptimizeCold(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	out.set("failed_share", float64(out.failed)/float64(max(out.attempted, 1)))
	specs := endToEnd
	if cfg.trace {
		specs = tracedMetrics()
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := out.metrics[m.Name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("%s produced no %s", name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, res, nil
}

func printRun(name string, cfg runConfig, out *runOutput, res *result) {
	fmt.Printf("== %s  seed %d  %.0f s  trace %t ==\n", name, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// runSeconds is how long the driver lets one run measure: 4 + 22 runs
// per workload must fit the driver's cap of 3420 s together with seven
// set-ups per run and two cold builds (about 2800 s on this host).
const runSeconds = 25

// manifestJSON renders BENCHMARK.json from the metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []wl      `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, l := range tracedMetrics() {
		m.PerLayer = append(m.PerLayer, layer{l.Name, l.Unit, l.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// runRecord is one run in a results file (the all-workloads mode's
// output and -compare's input).
type runRecord struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	OpsSHA    string             `json:"ops_sha256"`
	Metrics   map[string]float64 `json:"metrics"`
}

type resultsFile struct {
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	CPUs    int         `json:"cpus"`
	Go      string      `json:"go"`
	Runs    []runRecord `json:"runs"`
}

func main() {
	workload := flag.String("workload", "", "run this workload once and print the result as the last line (default: run them all)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics from spans around each layer's calls")
	runs := flag.Int("runs", 3, "all-workloads mode: timed runs per workload")
	outDir := flag.String("out", "", "scratch and results directory (default <bench>/out)")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	record := flag.String("record", "", "with -workload: also write the run, with every metric it measured, to this file")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in metrics.go define it")
	flag.Parse()

	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	var err error
	if *workload != "" {
		err = runOne(ctx, *workload, cfg, *record)
	} else {
		err = runAll(ctx, cfg, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

// benchDir finds this module's directory from the working directory:
// the checkout's root (the driver, bench/run.sh) or the module itself
// (go run .).
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && len(data) > 0 {
			if _, err := os.Stat(filepath.Join(dir, "shadow.go")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/")
}

// setUpRun prepares the scratch directory and the daemon's binary.
func setUpRun(ctx context.Context, cfg *runConfig) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(dir, "out")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	cfg.sqod, err = buildSqod(ctx, dir, cfg.outDir)
	return err
}

// runOne is the driver's mode: one run of one workload, the result as
// the last line of standard output.
func runOne(ctx context.Context, workload string, cfg runConfig, recordPath string) error {
	if err := setUpRun(ctx, &cfg); err != nil {
		return err
	}
	out, res, err := runWorkload(ctx, workload, cfg)
	if err != nil {
		return err
	}
	printRun(workload, cfg, out, res)
	if recordPath != "" {
		data, err := json.Marshal(runRecord{Workload: workload, Trace: cfg.trace, Seed: cfg.seed,
			Attempted: res.Attempted, Failed: res.Failed, OpsSHA: out.opsSHA, Metrics: out.metrics})
		if err == nil {
			err = os.WriteFile(recordPath, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload — runs timed runs, then the traced run —
// each as a process of its own, exactly as the driver would, so that a
// run's peak memory and caches are its own. It writes the results file
// -compare reads.
func runAll(ctx context.Context, cfg runConfig, runs int) error {
	if err := setUpRun(ctx, &cfg); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Seed: cfg.seed, Seconds: cfg.seconds, CPUs: runtime.NumCPU(), Go: runtime.Version()}
	recordPath := filepath.Join(cfg.outDir, "run.json")
	failed := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			trace := "0"
			if i == runs {
				trace = "1"
			}
			cmd := exec.CommandContext(ctx, exe, "-workload", w.Name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir, "-record", recordPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var rec runRecord
			data, err := os.ReadFile(recordPath)
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err != nil || rec.Workload != w.Name {
				return fmt.Errorf("%s: no record of the run (%v): %v", w.Name, err, runErr)
			}
			os.Remove(recordPath)
			failed += rec.Failed
			file.Runs = append(file.Runs, rec)
		}
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("results-%s.json", time.Now().UTC().Format("20060102T150405Z")))
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
