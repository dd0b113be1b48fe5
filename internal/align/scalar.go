package align

// The scalar aligner: per outer tuple, collect the split points of the
// matching overlapping inner tuples (conventional join 1), sort them, and
// re-probe the inner relation once per fragment for its covering tuples
// (conventional join 2). It executes two real configurations:
// Config.NestedLoop — the plan PostgreSQL's optimizer chose for TA in the
// paper's evaluation, whose full per-tuple re-scan of the inner relation
// is exactly the measured cost — and inner relations whose event-list
// index would trip the arena guard. It is also the reference the indexed
// pipeline in align.go is property-tested byte-identical against
// (TestIndexedMatchesScalarAlign).

import (
	"context"
	"sort"

	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// scalarInner is the probe-side access path of the scalar aligner:
// either hashed equi-key groups (tp.KeyGroups over the interned keys) or,
// under the nested loop, a plain slice.
type scalarInner struct {
	eq      tp.EquiTheta
	buckets *tp.KeyGroups[int32] // nil under the nested loop
	all     []int32              // identity permutation for the nested loop
}

func buildScalarInner(s *tp.Relation, eq tp.EquiTheta, cfg Config) *scalarInner {
	ix := &scalarInner{eq: eq}
	if !cfg.NestedLoop {
		ix.buckets = tp.NewKeyGroups[int32]()
		for i := range s.Tuples {
			h, ok := eq.SKeyHash(s.Tuples[i].Fact)
			if !ok {
				continue
			}
			g := ix.buckets.Group(h, s.Tuples[i].Fact, eq.SKeyEqual)
			g.Vals = append(g.Vals, int32(i))
		}
		return ix
	}
	ix.all = make([]int32, len(s.Tuples))
	for i := range ix.all {
		ix.all[i] = int32(i)
	}
	return ix
}

// candidates returns the inner tuple indexes that can possibly match the
// fact (all of them under nested loop).
func (ix *scalarInner) candidates(f tp.Fact) []int32 {
	if ix.buckets == nil {
		return ix.all
	}
	h, ok := ix.eq.RKeyHash(f)
	if !ok {
		return nil
	}
	// Group facts are s facts; compare s key columns against the probe's
	// r key columns.
	gi := ix.buckets.Find(h, f, func(group, probe tp.Fact) bool {
		return ix.eq.Match(probe, group)
	})
	if gi < 0 {
		return nil
	}
	return ix.buckets.Groups()[gi].Vals
}

// match is θ on one candidate. A hashed key group matched the probe as a
// whole in candidates, so only the nested loop evaluates θ per candidate
// — the cost Fig. 7a measures.
func (ix *scalarInner) match(r, s tp.Fact) bool {
	return ix.buckets != nil || ix.eq.Match(r, s)
}

// scalarAligner adapts the reference algorithm to the streaming aligner
// contract. The points and cover buffers are reused across tuples, which
// changes nothing observable (the emitted fragments are identical); the
// nested-loop path inherits the reference's full per-fragment re-scan of
// the inner relation, because that redundancy is what the paper's Fig. 7a
// measures.
type scalarAligner struct {
	s      *tp.Relation
	ix     *scalarInner
	points []interval.Time
	cover  []int32
}

func newScalarAligner(s *tp.Relation, theta tp.EquiTheta, cfg Config) *scalarAligner {
	return &scalarAligner{s: s, ix: buildScalarInner(s, theta, cfg)}
}

func (a *scalarAligner) cheapCount() bool { return false }

func (a *scalarAligner) drain(ctx context.Context, r *tp.Relation, emit emitFunc) error {
	work := 0
	for ri := range r.Tuples {
		if ri%alignCancelCheck == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rt := &r.Tuples[ri]
		cand := a.ix.candidates(rt.Fact)

		// Conventional join 1: collect the split points of the matching,
		// overlapping inner tuples. This is where TA replicates tuples.
		a.points = append(a.points[:0], rt.T.Start, rt.T.End)
		for _, si := range cand {
			st := &a.s.Tuples[si]
			if !st.T.Overlaps(rt.T) || !a.ix.match(rt.Fact, st.Fact) {
				continue
			}
			if st.T.Start > rt.T.Start {
				a.points = append(a.points, st.T.Start)
			}
			if st.T.End < rt.T.End {
				a.points = append(a.points, st.T.End)
			}
		}
		sort.Slice(a.points, func(i, j int) bool { return a.points[i] < a.points[j] })
		points := dedupTimes(a.points)

		// Conventional join 2: re-probe the inner relation for every
		// fragment to find its covering tuples. TA pays this second join;
		// NJ derives the same information from the single overlap join.
		for i := 0; i+1 < len(points); i++ {
			frag := interval.New(points[i], points[i+1])
			a.cover = a.cover[:0]
			for _, si := range cand {
				st := &a.s.Tuples[si]
				if st.T.ContainsInterval(frag) && a.ix.match(rt.Fact, st.Fact) {
					a.cover = append(a.cover, si)
				}
			}
			if err := emit(ri, frag, a.cover); err != nil {
				return err
			}
			// A single outer tuple against a huge candidate set re-scans
			// the inner relation once per fragment; observe ctx inside
			// that drain too, or a one-key pathological relation would
			// only hit the per-64-tuples check above.
			if work += len(cand) + len(a.cover) + 1; work >= drainCancelWork {
				work = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func dedupTimes(ts []interval.Time) []interval.Time {
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// ScalarAlign is the reference alignment: the two conventional joins of
// the TA reduction executed tuple-at-a-time with per-fragment re-probes,
// exactly as the baseline ran before the batched refactor. Align must
// produce byte-identical fragments (property-tested); ScalarAlign exists
// so that equivalence stays checkable.
func ScalarAlign(r, s *tp.Relation, theta tp.EquiTheta, cfg Config) []Fragment {
	a := newScalarAligner(s, theta, cfg)
	return materializeFragments(a, r)
}
