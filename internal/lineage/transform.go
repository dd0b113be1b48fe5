package lineage

// Literals returns the number of literal occurrences (variables, possibly
// negated) in e.
func Literals(e *Expr) int {
	switch e.kind {
	case KindVar:
		return 1
	case KindFalse, KindTrue:
		return 0
	case KindNot:
		return Literals(e.kids[0])
	default:
		n := 0
		for _, k := range e.kids {
			n += Literals(k)
		}
		return n
	}
}
