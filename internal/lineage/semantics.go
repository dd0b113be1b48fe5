package lineage

// Equivalent reports whether a and b are logically equivalent, i.e. agree
// under every truth assignment to their variables. It enumerates all 2^n
// assignments over the union of the variable sets and is therefore only
// suitable for small formulas (validators, tests, the Table I window
// checkers); the join algorithms themselves never call it.
//
// nil (the paper's "null" lineage) is only equivalent to nil: null marks
// the *absence* of a lineage, which is semantically different from the
// constant false.
func Equivalent(a, b *Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Equal(b) {
		return true
	}
	vars := unionVars(a, b)
	if len(vars) > 24 {
		panic("lineage: Equivalent on too many variables")
	}
	assign := make(map[Var]bool, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return a.Eval(assign) == b.Eval(assign)
		}
		assign[vars[i]] = false
		if !rec(i + 1) {
			return false
		}
		assign[vars[i]] = true
		return rec(i + 1)
	}
	return rec(0)
}

func unionVars(a, b *Expr) []Var {
	set := make(map[Var]struct{})
	a.collectVars(set)
	b.collectVars(set)
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	// Deterministic order for reproducible enumeration.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Less(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
