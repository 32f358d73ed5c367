// Package statsequal is a build-time analyzer for the eval.Stats
// comparison contract: every field of the Stats struct must be either
// compared by the Equal method or deliberately listed in the
// statsEqualExcluded set, and the exclusion set must not name stale or
// double-accounted fields. The contract matters because differential
// tests use Equal as the determinism oracle — across repeated runs, a
// reused or derived interned base against a from-scratch one, and the
// benchmark's shadow pipeline against the product — so a field added to
// Stats but forgotten in both places silently escapes that oracle.
//
// The analysis is purely syntactic (go/ast, no type checking, no
// third-party dependencies), which is all the pattern needs: the
// struct, the method, and the map literal live side by side in one
// package. cmd/statsequal wraps it in the `go vet -vettool` driver
// protocol so CI runs it as a vet pass; the reflection-based
// TestStatsEqualPartition in internal/eval enforces the same contract
// behaviorally.
package statsequal

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
)

// Finding is one contract violation, positioned for file:line:col
// diagnostics.
type Finding struct {
	Pos     token.Pos
	Message string
}

// Check analyzes one package's files, every field of the struct
// exported or not. It looks for a struct type named Stats, an Equal method with a Stats receiver, and a package-level
// map literal named statsEqualExcluded. When the package does not
// define both the struct and the method the check does not apply and
// Check returns nil — the pattern under enforcement is specifically
// eval's comparison contract, not every type that happens to be called
// Stats.
func Check(files []*ast.File) []Finding {
	var (
		statsDecl *ast.StructType
		equalBody *ast.BlockStmt
		excluded  = map[string]token.Pos{}
	)
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.Name == "Stats" {
							statsDecl = st
						}
					case *ast.ValueSpec:
						for i, name := range s.Names {
							if name.Name != "statsEqualExcluded" || i >= len(s.Values) {
								continue
							}
							if lit, ok := s.Values[i].(*ast.CompositeLit); ok {
								for _, elt := range lit.Elts {
									kv, ok := elt.(*ast.KeyValueExpr)
									if !ok {
										continue
									}
									if key, ok := kv.Key.(*ast.BasicLit); ok && key.Kind == token.STRING {
										if name, err := strconv.Unquote(key.Value); err == nil {
											excluded[name] = key.Pos()
										}
									}
								}
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name == "Equal" && d.Recv != nil && recvIsStats(d.Recv) {
					equalBody = d.Body
				}
			}
		}
	}
	if statsDecl == nil || equalBody == nil {
		return nil
	}

	compared := comparedFields(equalBody)
	var out []Finding
	fields := map[string]bool{}
	for _, f := range statsDecl.Fields.List {
		// Unexported fields are held to the contract too: a record kept
		// behind an accessor method (Stats.RoundDeltas) must still be
		// compared or excluded.
		for _, name := range f.Names {
			fields[name.Name] = true
			inEqual := compared[name.Name]
			_, inExcluded := excluded[name.Name]
			switch {
			case !inEqual && !inExcluded:
				out = append(out, Finding{Pos: name.Pos(),
					Message: fmt.Sprintf("Stats field %s is neither compared in Equal nor listed in statsEqualExcluded; add it to one of them", name.Name)})
			case inEqual && inExcluded:
				out = append(out, Finding{Pos: excluded[name.Name],
					Message: fmt.Sprintf("Stats field %s is both compared in Equal and listed in statsEqualExcluded; drop one", name.Name)})
			}
		}
	}
	for name, pos := range excluded {
		if !fields[name] {
			out = append(out, Finding{Pos: pos,
				Message: fmt.Sprintf("statsEqualExcluded names %s, which is not a field of Stats", name)})
		}
	}
	sortFindings(out)
	return out
}

// recvIsStats reports whether the receiver type is Stats or *Stats.
func recvIsStats(recv *ast.FieldList) bool {
	if len(recv.List) != 1 {
		return false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "Stats"
}

// comparedFields collects the field names the Equal body reads through
// any selector on a plain identifier (s.Iterations, o.RuleFirings, a
// range over s.RoundDeltas, ...). Purely syntactic: any mention counts
// as compared, which is the right bias — the analyzer exists to catch
// fields mentioned nowhere.
func comparedFields(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if _, ok := sel.X.(*ast.Ident); ok {
				out[sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}

// sortFindings orders findings by position so output is deterministic
// regardless of map iteration order.
func sortFindings(fs []Finding) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Pos < fs[j-1].Pos; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
