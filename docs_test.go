package sqo

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
