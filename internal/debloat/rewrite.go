// Package debloat implements λ-trim's debloater (§5.3 and §6 of the paper):
// attribute-granularity Delta Debugging over the __init__ files of the
// top-K modules selected by the profiler, validated by an oracle that
// re-runs the application on its test cases and compares observable
// behaviour (stdout, handler result, and the journal of external calls).
package debloat

import (
	"sort"

	"repro/internal/pylang"
	"repro/internal/pyruntime"
)

// Granularity selects the DD component granularity. The paper argues for
// attribute granularity (§6.1): compared to statements it is coarser for
// def/class (whole definitions) but finer for "from m import a, b, c",
// where individual names can be dropped. Statement granularity is kept as
// an ablation arm.
type Granularity int

const (
	// AttrGranularity removes module attributes (the paper's choice).
	AttrGranularity Granularity = iota
	// StmtGranularity removes whole top-level statements (ablation).
	StmtGranularity
)

func (g Granularity) String() string {
	if g == StmtGranularity {
		return "statement"
	}
	return "attribute"
}

// providers maps each module attribute to the indices of top-level
// statements that bind it. Statements that bind no attribute (bare
// expressions, control flow) are never removed at attribute granularity.
func providers(body []pylang.Stmt) map[string][]int {
	out := make(map[string][]int)
	add := func(name string, idx int) {
		out[name] = append(out[name], idx)
	}
	for i, s := range body {
		for _, name := range BoundNames(s) {
			add(name, i)
		}
	}
	return out
}

// BoundNames returns the module attributes a top-level statement binds:
// the debloater's statement model, shared with the static baselines.
func BoundNames(s pylang.Stmt) []string {
	switch v := s.(type) {
	case *pylang.DefStmt:
		return []string{v.Name}
	case *pylang.ClassStmt:
		return []string{v.Name}
	case *pylang.AssignStmt:
		var names []string
		for _, t := range v.Targets {
			if n, ok := t.(*pylang.NameExpr); ok {
				names = append(names, n.Name)
			}
		}
		return names
	case *pylang.ImportStmt:
		names := make([]string, 0, len(v.Names))
		for _, a := range v.Names {
			names = append(names, a.Bound())
		}
		return names
	case *pylang.FromImportStmt:
		if v.Star {
			return nil
		}
		names := make([]string, 0, len(v.Names))
		for _, a := range v.Names {
			if a.AsName != "" {
				names = append(names, a.AsName)
			} else {
				names = append(names, a.Name)
			}
		}
		return names
	}
	return nil
}

// rewriteWithoutAttrs builds a new module body with the given attributes
// removed, at attribute granularity:
//
//   - def / class statements whose name is removed are dropped entirely;
//   - assignments are dropped when every name target is removed;
//   - "import a, b" drops individual aliases;
//   - "from m import a, b" drops individual names — the fine-grained case
//     the paper highlights (Figure 7: "from torch.nn import Linear, MSELoss"
//     becomes "from torch.nn import Linear");
//   - everything else is kept untouched.
func rewriteWithoutAttrs(body []pylang.Stmt, removed map[string]bool) []pylang.Stmt {
	out := make([]pylang.Stmt, 0, len(body))
	for _, s := range body {
		switch v := s.(type) {
		case *pylang.DefStmt:
			if removed[v.Name] {
				continue
			}
		case *pylang.ClassStmt:
			if removed[v.Name] {
				continue
			}
		case *pylang.AssignStmt:
			names := BoundNames(v)
			if len(names) > 0 && allRemoved(names, removed) {
				continue
			}
		case *pylang.ImportStmt:
			kept := make([]pylang.Alias, 0, len(v.Names))
			for _, a := range v.Names {
				if !removed[a.Bound()] {
					kept = append(kept, a)
				}
			}
			if len(kept) == 0 {
				continue
			}
			if len(kept) != len(v.Names) {
				out = append(out, &pylang.ImportStmt{Pos: v.Pos, Names: kept})
				continue
			}
		case *pylang.FromImportStmt:
			if !v.Star {
				kept := make([]pylang.Alias, 0, len(v.Names))
				for _, a := range v.Names {
					bound := a.Name
					if a.AsName != "" {
						bound = a.AsName
					}
					if !removed[bound] {
						kept = append(kept, a)
					}
				}
				if len(kept) == 0 {
					// The import disappears entirely — and with it the
					// submodule's own initialization cost.
					continue
				}
				if len(kept) != len(v.Names) {
					out = append(out, &pylang.FromImportStmt{
						Pos: v.Pos, Level: v.Level, Module: v.Module, Names: kept,
					})
					continue
				}
			}
		}
		out = append(out, s)
	}
	return out
}

func allRemoved(names []string, removed map[string]bool) bool {
	for _, n := range names {
		if !removed[n] {
			return false
		}
	}
	return true
}

// rewriteKeepStmts builds a module body keeping only the statements whose
// index is in keep (statement-granularity ablation). Statements that bind
// no attribute — or that bind a magic attribute — are always kept, matching
// the attribute arm's exclusion of magic attributes from DD.
func rewriteKeepStmts(body []pylang.Stmt, keep map[int]bool) []pylang.Stmt {
	out := make([]pylang.Stmt, 0, len(body))
	for i, s := range body {
		if !IsCandidate(s) || keep[i] {
			out = append(out, s)
		}
	}
	return out
}

// IsCandidate reports whether a top-level statement is a valid DD component
// at statement granularity: it binds at least one attribute and none of
// them is magic. The static baselines keep every other statement too.
func IsCandidate(s pylang.Stmt) bool {
	names := BoundNames(s)
	if len(names) == 0 {
		return false
	}
	for _, n := range names {
		if pyruntime.MagicAttrs[n] {
			return false
		}
	}
	return true
}

// set returns the members of xs as a set.
func set[T comparable](xs []T) map[T]bool {
	out := make(map[T]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}

// without returns the candidates not in keep, as a set.
func without(candidates, keep []string) map[string]bool {
	out := set(candidates)
	for _, k := range keep {
		delete(out, k)
	}
	return out
}

// sortedNames returns the keys of a string set, sorted.
func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
