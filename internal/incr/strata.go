package incr

import "repro/internal/ast"

// stratum is one maintenance unit: a strongly connected component of
// the IDB dependency graph, in topological order (dependencies come in
// earlier strata), maintained by DRed (applyDRed).
type stratum struct {
	preds []string // sorted
	inStr map[string]bool
	rules []int // indices of rules whose head is in preds, ascending
}

// buildStrata turns the program's dependency components (ast's
// Recursion: topological, dependencies first) into strata.
func buildStrata(p *ast.Program) []stratum {
	rc := p.Recursion()
	out := make([]stratum, 0, len(rc.Comps))
	for _, comp := range rc.Comps {
		st := stratum{preds: comp, inStr: map[string]bool{}}
		for _, pred := range comp {
			st.inStr[pred] = true
		}
		for i, r := range p.Rules {
			if st.inStr[r.Head.Pred] {
				st.rules = append(st.rules, i)
			}
		}
		out = append(out, st)
	}
	return out
}
