package sqo

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocsCiteExistingPaths: every repository path README.md,
// DESIGN.md, EXPERIMENTS.md and ROADMAP.md cite exists, and every
// file:line they cite is within its file. (Removed code is history
// there, named without its path.) Two files stay out: CHANGES.md is
// the project's history and cites removed paths by design, and
// bench/README.md belongs to the frozen benchmark module, which only a
// change to the benchmark itself may edit. A path is one under a
// top-level source directory (`internal/eval`, `cmd/sqod`) or a file
// with a source or data extension; one given by its trailing
// components alone (`compiled.go`, `testdata/v1`) must be the tail of
// some repository path.
func TestDocsCiteExistingPaths(t *testing.T) {
	var repo []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build") {
			return filepath.SkipDir
		}
		repo = append(repo, filepath.ToSlash(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(cited string) string {
		for _, p := range repo {
			if p == cited || strings.HasSuffix(p, "/"+cited) {
				return p
			}
		}
		return ""
	}
	dirRe := regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|examples|scripts|bench|\.github)/[\w./-]*\w)`)
	fileRe := regexp.MustCompile(`(?:^|[^\w./:-])([\w./-]*\w\.(?:go|json|md|sh|dl|golden|yml)\b)(?::(\d+))?`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range dirRe.FindAllSubmatch(text, -1) {
			if resolve(string(m[1])) == "" {
				t.Errorf("%s cites %s, which does not exist", doc, m[1])
			}
		}
		for _, m := range fileRe.FindAllSubmatch(text, -1) {
			p := resolve(string(m[1]))
			if p == "" {
				t.Errorf("%s cites %s, which does not exist", doc, m[1])
				continue
			}
			if len(m[2]) == 0 {
				continue
			}
			line, _ := strconv.Atoi(string(m[2]))
			body, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(body, []byte("\n")); line < 1 || line > n {
				t.Errorf("%s cites %s:%d, but %s has %d lines", doc, m[1], line, p, n)
			}
		}
	}
}

// timingColumns are the EXPERIMENTS.md columns that hold dated host
// measurements (P4's speedup is a wall-clock ratio), which
// TestExperimentsDocMatchesGolden leaves unchecked. A column the golden
// holds is checked whatever its name, as E1's speedup is.
var timingColumns = map[string]bool{
	"time": true, "wall": true, "plan": true, "run": true, "total": true, "open": true,
	"append/op": true, "incremental": true, "recompute": true, "speedup": true,
}

// TestExperimentsDocMatchesGolden: every table of an EXPERIMENTS.md
// section whose id testdata/experiments.golden holds (`## E2 — …`) is
// that id's golden table with timing columns added: each of its rows,
// restricted to the columns the two share (matched by header), is a row
// of the golden, and each column the golden lacks is a timing column.
// Every id of the golden has at least one such table in the document.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	golden := markdownTables(t, experimentsGolden)
	doc := markdownTables(t, "EXPERIMENTS.md")
	var ids []string
	for id := range golden {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		gt := golden[id][0]
		col := map[string]int{}
		for i, c := range gt[0] {
			col[c] = i
		}
		checked := 0
		for _, dt := range doc[id] {
			var docIdx, goldIdx []int
			for j, c := range dt[0] {
				if i, ok := col[c]; ok {
					docIdx, goldIdx = append(docIdx, j), append(goldIdx, i)
				} else if !timingColumns[c] {
					t.Errorf("EXPERIMENTS.md %s: column %q is neither in the golden nor a timing column", id, c)
				}
			}
			if len(docIdx) > 0 {
				checked++
			}
			want := map[string]bool{}
			for _, r := range gt[1:] {
				want[project(r, goldIdx)] = true
			}
			for _, r := range dt[1:] {
				if len(r) != len(dt[0]) {
					t.Errorf("EXPERIMENTS.md %s: row %q has %d cells, its header %d", id, strings.Join(r, " | "), len(r), len(dt[0]))
				} else if !want[project(r, docIdx)] {
					t.Errorf("EXPERIMENTS.md %s: row %q is not in %s (columns %s)", id, strings.Join(r, " | "), experimentsGolden, project(gt[0], goldIdx))
				}
			}
		}
		if checked == 0 {
			t.Errorf("EXPERIMENTS.md has no table under ## %s for the golden to check", id)
		}
	}
}

// project joins the cells of row at idx.
func project(row []string, idx []int) string {
	cells := make([]string, len(idx))
	for k, i := range idx {
		cells[k] = row[i]
	}
	return strings.Join(cells, " | ")
}

// markdownTables returns the tables of a markdown file by the first word
// of the `## ` heading they sit under; a table is its header row, then
// its body rows, with the alignment row dropped.
func markdownTables(t *testing.T, path string) map[string][][][]string {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sep := regexp.MustCompile(`^:?-+:?$`)
	out := map[string][][][]string{}
	id, inTable := "", false
	for _, line := range strings.Split(string(text), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			id = strings.Fields(h)[0]
		}
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), "|"), "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if sep.MatchString(cells[0]) {
			continue
		}
		if !inTable {
			out[id] = append(out[id], nil)
			inTable = true
		}
		tabs := out[id]
		tabs[len(tabs)-1] = append(tabs[len(tabs)-1], cells)
	}
	return out
}
