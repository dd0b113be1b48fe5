package window

import (
	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/tp"
)

// This file transcribes the three window definitions of Table I into
// executable checkers. They are used as oracles: every window emitted by
// the algorithms must pass its class's checker, and no window passing a
// checker may be missing from the output.
//
// One deliberate deviation: Table I states the maximality condition of
// negating windows as ∀t′ ∉ w.T, which read literally is violated by the
// paper's own windows whenever the same λs recurs on both sides of an
// intervening change (e.g. s₁ valid over [0,10) and s₂ over [2,4) yields
// negating windows [0,2) and [4,10) with identical λs = s₁). Section III.C
// ("a new window is created at every starting and ending point in group")
// shows the intended reading is *local* maximality at the window's
// endpoints, exactly like the unmatched-window condition, and that is what
// CheckNegating implements.

// lamS computes λ^{s,θ}_t for fact Fr: the disjunction of the lineages of
// the tuples of s valid at time t that satisfy θ against Fr. It returns
// nil (the paper's null) when there is no such tuple.
func lamS(s *tp.Relation, theta tp.EquiTheta, fr tp.Fact, t interval.Time) *lineage.Expr {
	var parts []*lineage.Expr
	for _, st := range s.Tuples {
		if st.T.Contains(t) && theta.Match(fr, st.Fact) {
			parts = append(parts, st.Lineage)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return lineage.Or(parts...)
}

// existsR reports whether some tuple of r valid at t has fact Fr and a
// lineage equivalent to Lr.
func existsR(r *tp.Relation, fr tp.Fact, lr *lineage.Expr, t interval.Time) bool {
	for _, rt := range r.Tuples {
		if rt.T.Contains(t) && rt.Fact.Equal(fr) && lineage.Equivalent(rt.Lineage, lr) {
			return true
		}
	}
	return false
}

// CheckOverlapping reports whether w satisfies the overlapping-window
// definition: some pair (r, s) of tuples with w's facts and lineages
// satisfies θ and w.T = r.T ∩ s.T.
func CheckOverlapping(w Window, r, s *tp.Relation, theta tp.EquiTheta) bool {
	if w.Fs == nil || w.Ls == nil {
		return false
	}
	for _, rt := range r.Tuples {
		if !rt.Fact.Equal(w.Fr) || !lineage.Equivalent(rt.Lineage, w.Lr) {
			continue
		}
		for _, st := range s.Tuples {
			if !st.Fact.Equal(w.Fs) || !lineage.Equivalent(st.Lineage, w.Ls) {
				continue
			}
			if theta.Match(rt.Fact, st.Fact) && w.T.Equal(rt.T.Intersect(st.T)) && !w.T.Empty() {
				return true
			}
		}
	}
	return false
}

// CheckUnmatched reports whether w satisfies the unmatched-window
// definition: λs and Fs are null; at every point of w.T some r tuple with
// w's fact and lineage is valid while λ^{s,θ} is null; and w.T is maximal
// (at both boundary points, either the r tuple is not valid or some
// matching s tuple is).
func CheckUnmatched(w Window, r, s *tp.Relation, theta tp.EquiTheta) bool {
	if w.Fs != nil || w.Ls != nil || w.T.Empty() {
		return false
	}
	for t := w.T.Start; t < w.T.End; t++ {
		if !existsR(r, w.Fr, w.Lr, t) {
			return false
		}
		if lamS(s, theta, w.Fr, t) != nil {
			return false
		}
	}
	for _, t := range []interval.Time{w.T.Start - 1, w.T.End} {
		if existsR(r, w.Fr, w.Lr, t) && lamS(s, theta, w.Fr, t) == nil {
			return false // could be extended: not maximal
		}
	}
	return true
}

// CheckNegating reports whether w satisfies the negating-window
// definition: Fs is null; at every point of w.T some r tuple with w's fact
// and lineage is valid, λ^{s,θ} is non-null and equivalent to w.λs; and
// w.T is maximal at its endpoints (either the r tuple stops being valid or
// λ^{s,θ} changes).
func CheckNegating(w Window, r, s *tp.Relation, theta tp.EquiTheta) bool {
	if w.Fs != nil || w.Ls == nil || w.T.Empty() {
		return false
	}
	for t := w.T.Start; t < w.T.End; t++ {
		if !existsR(r, w.Fr, w.Lr, t) {
			return false
		}
		ls := lamS(s, theta, w.Fr, t)
		if ls == nil || !lineage.Equivalent(w.Ls, ls) {
			return false
		}
	}
	for _, t := range []interval.Time{w.T.Start - 1, w.T.End} {
		if !existsR(r, w.Fr, w.Lr, t) {
			continue // maximal because r stops
		}
		ls := lamS(s, theta, w.Fr, t)
		if ls != nil && lineage.Equivalent(w.Ls, ls) {
			return false // could be extended: not maximal
		}
	}
	return true
}

// Check dispatches to the checker matching w's class.
func Check(w Window, r, s *tp.Relation, theta tp.EquiTheta) bool {
	switch w.Class() {
	case Overlapping:
		return CheckOverlapping(w, r, s, theta)
	case Unmatched:
		return CheckUnmatched(w, r, s, theta)
	default:
		return CheckNegating(w, r, s, theta)
	}
}
