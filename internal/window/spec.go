package window

import (
	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/tp"
)

// This file contains the set-level specification of the three window sets,
// constructing each directly from its definition in Table I. The functions
// are quadratic and materialize everything; they are the reference the
// pipelined sweep algorithms (internal/core) are tested against.

// SpecOverlapping returns WO(r;s,θ): one window per pair (r, s) of tuples
// that overlap temporally and satisfy θ, spanning T = r.T ∩ s.T.
func SpecOverlapping(r, s *tp.Relation, theta tp.EquiTheta) []Window {
	var out []Window
	for ri, rt := range r.Tuples {
		for _, st := range s.Tuples {
			if !rt.T.Overlaps(st.T) || !theta.Match(rt.Fact, st.Fact) {
				continue
			}
			out = append(out, Window{
				Fr: rt.Fact, Fs: st.Fact,
				T:  rt.T.Intersect(st.T),
				Lr: rt.Lineage, Ls: st.Lineage,
				RID: ri, RT: rt.T,
			})
		}
	}
	return out
}

// SpecUnmatched returns WU(r;s,θ): for every tuple of r, the maximal
// subintervals of its validity during which no tuple of s is valid or
// satisfies θ.
func SpecUnmatched(r, s *tp.Relation, theta tp.EquiTheta) []Window {
	var out []Window
	for ri, rt := range r.Tuples {
		var cover []interval.Interval
		for _, st := range s.Tuples {
			if theta.Match(rt.Fact, st.Fact) {
				cover = append(cover, st.T)
			}
		}
		for _, gap := range interval.Gaps(rt.T, cover) {
			out = append(out, Window{
				Fr: rt.Fact, Fs: nil,
				T:  gap,
				Lr: rt.Lineage, Ls: nil,
				RID: ri, RT: rt.T,
			})
		}
	}
	return out
}

// SpecNegating returns WN(r;s,θ): for every tuple of r, the elementary
// subintervals of its validity during which at least one matching s tuple
// is valid, with λs the disjunction of all of their lineages. A window ends
// whenever a matching s tuple starts or stops being valid (within r's
// interval), so λs is constant over each window and the interval is
// maximal for that λs.
func SpecNegating(r, s *tp.Relation, theta tp.EquiTheta) []Window {
	var out []Window
	for ri, rt := range r.Tuples {
		type match struct {
			t   interval.Interval
			lam *lineage.Expr
		}
		var ms []match
		var clipped []interval.Interval
		for _, st := range s.Tuples {
			if !theta.Match(rt.Fact, st.Fact) {
				continue
			}
			x := st.T.Intersect(rt.T)
			if x.Empty() {
				continue
			}
			ms = append(ms, match{t: x, lam: st.Lineage})
			clipped = append(clipped, x)
		}
		for _, elem := range interval.Elementary(clipped) {
			var active []*lineage.Expr
			for _, m := range ms {
				if m.t.ContainsInterval(elem) {
					active = append(active, m.lam)
				}
			}
			if len(active) == 0 {
				continue
			}
			out = append(out, Window{
				Fr: rt.Fact, Fs: nil,
				T:  elem,
				Lr: rt.Lineage, Ls: lineage.Or(active...),
				RID: ri, RT: rt.T,
			})
		}
	}
	return out
}
