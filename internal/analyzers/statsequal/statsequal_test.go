package statsequal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseFiles(t *testing.T, srcs ...string) []*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, "src.go", src, 0)
		if err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		files = append(files, f)
	}
	return files
}

const cleanSrc = `package eval

type Stats struct {
	Iterations int
	Derived    int64
	PlanNanos  int64
	Applied    bool
}

var statsEqualExcluded = map[string]bool{
	"PlanNanos": true,
	"Applied":   true,
}

func (s *Stats) Equal(o *Stats) bool {
	return s.Iterations == o.Iterations && s.Derived == o.Derived
}
`

func TestCleanContract(t *testing.T) {
	if fs := Check(parseFiles(t, cleanSrc)); len(fs) != 0 {
		t.Fatalf("clean contract: want no findings, got %v", fs)
	}
}

func TestUncomparedUnexcludedField(t *testing.T) {
	src := strings.Replace(cleanSrc, "Applied    bool", "Applied bool\n\tForgotten int64", 1)
	fs := Check(parseFiles(t, src))
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "Forgotten") ||
		!strings.Contains(fs[0].Message, "neither compared") {
		t.Fatalf("want one finding about Forgotten, got %v", fs)
	}
}

// A field behind an accessor method is still part of the contract.
func TestUnexportedFieldChecked(t *testing.T) {
	src := strings.Replace(cleanSrc, "Applied    bool", "Applied bool\n\trounds []int64", 1)
	fs := Check(parseFiles(t, src))
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "rounds") ||
		!strings.Contains(fs[0].Message, "neither compared") {
		t.Fatalf("want one finding about rounds, got %v", fs)
	}
	src = strings.Replace(src,
		"return s.Iterations == o.Iterations && s.Derived == o.Derived",
		"return s.Iterations == o.Iterations && s.Derived == o.Derived && slices.Equal(s.rounds, o.rounds)", 1)
	if fs := Check(parseFiles(t, src)); len(fs) != 0 {
		t.Fatalf("compared unexported field: want no findings, got %v", fs)
	}
}

func TestStaleExclusion(t *testing.T) {
	src := strings.Replace(cleanSrc, `"Applied":   true,`, `"Applied": true,
	"Removed": true,`, 1)
	fs := Check(parseFiles(t, src))
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "Removed") ||
		!strings.Contains(fs[0].Message, "not a field") {
		t.Fatalf("want one finding about stale Removed, got %v", fs)
	}
}

func TestDoubleAccountedField(t *testing.T) {
	src := strings.Replace(cleanSrc,
		"s.Iterations == o.Iterations && s.Derived == o.Derived",
		"s.Iterations == o.Iterations && s.Derived == o.Derived && s.Applied == o.Applied", 1)
	fs := Check(parseFiles(t, src))
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "Applied") ||
		!strings.Contains(fs[0].Message, "both compared") {
		t.Fatalf("want one finding about double-accounted Applied, got %v", fs)
	}
}

func TestRangeCountsAsCompared(t *testing.T) {
	src := strings.Replace(cleanSrc, "Applied    bool", "Applied bool\n\tDeltas []int", 1)
	src = strings.Replace(src,
		"return s.Iterations == o.Iterations && s.Derived == o.Derived",
		`if len(s.Deltas) != len(o.Deltas) {
		return false
	}
	return s.Iterations == o.Iterations && s.Derived == o.Derived`, 1)
	if fs := Check(parseFiles(t, src)); len(fs) != 0 {
		t.Fatalf("field read via len() must count as compared, got %v", fs)
	}
}

// Packages that merely define a type named Stats (no Equal method in
// the comparison-contract shape) are out of scope.
func TestUnrelatedStatsTypeIgnored(t *testing.T) {
	src := `package other

type Stats struct {
	Hits   int
	Misses int
}
`
	if fs := Check(parseFiles(t, src)); fs != nil {
		t.Fatalf("no Equal method: want nil findings, got %v", fs)
	}
}

// The real contract lives in internal/eval; the analyzer must pass on
// it. (CI also runs the vettool against the package; this is the fast
// in-process version of the same assertion.)
func TestEvalPackageClean(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../../eval", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["eval"]
	if !ok {
		t.Fatal("package eval not found")
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		files = append(files, f)
	}
	if fs := Check(files); len(fs) != 0 {
		for _, f := range fs {
			t.Errorf("%s: %s", fset.Position(f.Pos), f.Message)
		}
	}
}
