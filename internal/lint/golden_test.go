package lint

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parser"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGoldenExamples locks the exact text and JSON renderings of the
// linter over the checked-in example programs, including the Figure 1
// transitive-closure program. Regenerate with:
//
//	go test ./internal/lint -run Golden -update
func TestGoldenExamples(t *testing.T) {
	paths, err := filepath.Glob("../../examples/lint/*.dl")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example programs under examples/lint/")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".dl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			unit, err := parser.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			rep := Run(context.Background(), unit.Program, unit.ICs, unit.Facts, Options{})

			var text, js bytes.Buffer
			if err := WriteText(&text, rep, File{Name: name + ".dl"}); err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&js)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", name+".txt"), text.Bytes())
			compareGolden(t, filepath.Join("testdata", name+".json"), js.Bytes())
		})
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s out of date (run with -update):\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
