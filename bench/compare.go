package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare judges two results files of the all-workloads mode, one row
// per pairing of end-to-end metric and workload: both medians, the
// ratio with its base, the bound, and a verdict. A metric whose
// run-to-run spread (interquartile distance over median, on either
// side) exceeds its bound is unresolved, not unchanged. Count metrics
// marked exact must be identical. The exit code is non-zero on any
// "worse", any differing count, or a higher share of failed operations.

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects a metric's values over a file's runs of a workload;
// end-to-end metrics come from the untraced runs only.
func (f *resultsFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, v)
		}
	}
	return out
}

// verdict judges one metric. worsening is the share of the old median
// by which the new one is worse (negative when it is better).
func verdict(m metricSpec, old, new []float64) (string, float64) {
	mo, mn := median(old), median(new)
	if mo == 0 {
		if mn == 0 {
			return "same", 0
		}
		return "worse", 1
	}
	worsening := (mn - mo) / mo
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case max(spread(old), spread(new)) > m.Bound:
		return "unresolved", worsening
	case worsening > m.Bound:
		return "worse", worsening
	case worsening < -m.Bound:
		return "better", worsening
	}
	return "same", worsening
}

func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := loadResults(oldPath)
	if err == nil {
		var cur *resultsFile
		if cur, err = loadResults(newPath); err == nil {
			return compareResults(w, old, cur)
		}
	}
	fmt.Fprintln(w, "bench -compare:", err)
	return 2
}

func compareResults(w io.Writer, old, cur *resultsFile) int {
	bad := 0
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds {
		fmt.Fprintf(w, "note: settings differ (seed %d vs %d, seconds %g vs %g); counts are not comparable\n",
			old.Seed, cur.Seed, old.Seconds, cur.Seconds)
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s  %-22s %6s  %s\n", "workload", "metric", "old median", "new median", "new/old", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range append(append([]metricSpec(nil), endToEnd...), scoped...) {
			o, n := old.values(wl.Name, m.Name, false), cur.values(wl.Name, m.Name, false)
			if len(o) == 0 || len(n) == 0 || (median(o) == 0 && median(n) == 0 && m.Name != "failed_share") {
				continue
			}
			if m.Name == "failed_share" {
				v := "same"
				if median(n) > median(o) {
					v, bad = "worse", bad+1
				}
				fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g  %-22s %6s  %s\n", wl.Name, m.Name, median(o), median(n), "", "0", v)
				continue
			}
			v, _ := verdict(m, o, n)
			if v == "worse" {
				bad++
			}
			ratio := fmt.Sprintf("%.3f of %.5g %s", median(n)/median(o), median(o), m.Unit)
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g  %-22s %5.0f%%  %s (spread %.1f%% / %.1f%%, n=%d/%d)\n",
				wl.Name, m.Name, median(o), median(n), ratio, 100*m.Bound, v, 100*spread(o), 100*spread(n), len(o), len(n))
		}
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			o, n := old.values(wl.Name, m.Name, true), cur.values(wl.Name, m.Name, true)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			for _, v := range append(append([]float64(nil), o...), n...) {
				if v != o[0] {
					bad++
					fmt.Fprintf(w, "%-14s %-18s count differs: old %v new %v\n", wl.Name, m.Name, o, n)
					break
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d rows worse or differing\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no row worse, every exact count identical")
	return 0
}
