// Package align implements the Temporal Alignment (TA) baseline the paper
// compares against: the approach of Dignös, Böhlen, Gamper and Jensen
// ("Extending the Kernel of a Relational DBMS with Comprehensive Support
// for Sequenced Temporal Queries", TODS 41(4), 2016), adapted to
// temporal-probabilistic joins with negation as described in the paper's
// Section IV.
//
// TA reduces a temporal join to a conventional join over *aligned* inputs:
//
//  1. every tuple of the outer relation is split (replicated) at the
//     starting and ending points of the matching tuples of the inner
//     relation — one conventional join;
//  2. a second conventional join matches each fragment with the tuples
//     covering it, producing pairings, negated fragments (λr ∧ ¬∨λs) and
//     unmatched fragments;
//  3. joins with negation additionally require a second sub-query for the
//     negated part, and a union that eliminates the unmatched fragments
//     computed by both sub-queries.
//
// The structural redundancies relative to the paper's NJ approach are what
// the evaluation measures: tuple replication in step 1, the per-fragment
// cover computation of step 2, and the duplicate-eliminating union of
// step 3. Config's NestedLoop flag mirrors the plan PostgreSQL's optimizer
// chose for TA in the paper's experiments (a nested loop for
// r ⟕_{θo∧θ} s); the default hash-partitions the inner relation.
//
// The hash plan runs on the same allocation-lean machinery as
// internal/core's NJ pipeline: the inner relation is hash-partitioned once
// per join by its interned equi key (tp.KeyGroups over
// tp.EquiTheta.SKeyHash), and each key group is compiled into an endpoint
// event list — the group's sorted unique interval endpoints plus, per
// elementary segment between consecutive endpoints, the covering tuples
// in one flat arena. Both conventional joins of an alignment pass stream
// off that index (split points by binary search, covers as borrowed arena
// slices). The nested-loop plan and inner relations that trip the arena
// guard run the scalar aligner instead (scalar.go), whose full rescans
// are the measured cost of Fig. 7a; the two aligners are property-tested
// byte-identical.
//
// Whatever the aligner, every join runs one tail (stream.go): a fused
// drain per alignment direction emits both sub-queries' rows off one
// fragment enumeration, the duplicate-eliminating union sorts interned
// facts, and probabilities are evaluated in batches. The textbook tail —
// materialize sub-query A, re-drain for sub-query B, sort, deduplicate —
// lives in the test binary (reference_test.go) as the byte-identity
// oracle.
//
// ParallelJoin (parallel.go) is the partitioned-parallel TA executor
// (engine strategy "pta"): the PNJ parallelism model applied to the
// alignment baseline.
//
// The produced relations are point-wise equal to internal/core's results
// (property-tested), differing only in how pairings are fragmented.
package align

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"tpjoin/internal/interval"
	"tpjoin/internal/mem"
	"tpjoin/internal/tp"
)

// Config controls the physical behaviour of the baseline.
type Config struct {
	// NestedLoop forces nested-loop evaluation of the conventional joins,
	// matching the plan the PostgreSQL optimizer selected for TA in the
	// paper's evaluation. When false, the inner relation is hash-partitioned.
	NestedLoop bool
}

// Stats accounts one TA join for EXPLAIN ANALYZE: how many aligned
// fragments the alignment passes produced and how many times the
// alignment (both conventional joins) ran — joins with negation re-run it
// per sub-query, which is exactly the redundancy the paper measures.
// Under the parallel executor (ParallelJoin) Workers and Partitions
// additionally record the partitioning, and the other counters aggregate
// over all partitions.
type Stats struct {
	// Fragments is the total fragment count across alignment passes.
	Fragments int64
	// AlignPasses is how many times the two conventional joins ran. The
	// fused drain (stream.go) merges both sub-queries of a negation join
	// into one enumeration, so a left outer join reports 1 where the
	// reference tail would run 2.
	AlignPasses int64
	// Rows is the output row count before the duplicate-eliminating
	// union (the rows actually materialized).
	Rows int64
	// DupAvoided counts unmatched fragments whose duplicate second
	// materialization the streaming union killed at the merge frontier —
	// rows the reference tail materializes, sorts and then eliminates.
	DupAvoided int64
	// ProbBatches is how many probability batches the batched evaluation
	// tail served; MemoHits how many sub-lineages it answered from the
	// shared memo instead of re-evaluating; ShannonSteps how many Shannon
	// expansions it paid (zero on read-once lineage).
	ProbBatches  int64
	MemoHits     int64
	ShannonSteps int64
	// Workers is the effective worker count of a ParallelJoin (0 for the
	// sequential baseline).
	Workers int64
	// Partitions is the partition count of a ParallelJoin.
	Partitions int64
}

// alignCancelCheck is how many outer tuples an alignment pass processes
// between context checks. The per-tuple work of the two conventional
// joins dwarfs the (atomic-load) check, so cancellation bites within a
// few tuples' worth of work without showing up in profiles.
const alignCancelCheck = 64

// drainCancelWork bounds the work (fragments plus cover entries plus
// candidate scans) done between context checks *inside* one outer tuple's
// fragment drain. The per-64-tuples check alone is not enough: one outer
// tuple against a single huge key group drains λ·fragments rows before
// the next tuple boundary, so a pathological one-key relation would
// otherwise run a cancelled alignment to completion.
const drainCancelWork = 4096

// Fragment is one aligned piece of an outer tuple together with the inner
// tuples covering it. It corresponds to one replicated tuple of the TODS
// normalize/align step.
type Fragment struct {
	RID   int               // outer tuple index
	T     interval.Interval // aligned subinterval
	Cover []int             // indexes of matching inner tuples covering T
}

// emitFunc receives one aligned fragment: the outer tuple index, the
// fragment interval and the covering inner tuple indexes. The cover slice
// is borrowed — valid only until emit returns.
type emitFunc func(ri int, t interval.Interval, cover []int32) error

// aligner runs the two conventional joins of one alignment direction,
// streaming every fragment to emit in outer-tuple order. A non-nil error
// from emit (or from the query context) aborts the drain. cheapCount
// reports whether an extra counting drain is nearly free (the indexed
// pipeline) or re-runs the full conventional joins (the scalar aligner,
// where an extra pass would inflate the measured plan by half).
type aligner interface {
	drain(ctx context.Context, r *tp.Relation, emit emitFunc) error
	cheapCount() bool
}

// newAligner builds the probe-side access path for one join direction:
// the indexed event-list pipeline, or the scalar aligner for the
// nested-loop plan and for inner relations whose index would trip the
// arena guard (maxCoverArena). The index build observes ctx and charges
// the query's memory budget.
func newAligner(ctx context.Context, s *tp.Relation, theta tp.EquiTheta, cfg Config) (aligner, error) {
	if cfg.NestedLoop {
		return newScalarAligner(s, theta, cfg), nil
	}
	ix := newIndexedAligner(s, theta)
	fits, err := ix.build(ctx)
	if err == nil && fits {
		return ix, nil
	}
	if err != nil {
		return nil, err
	}
	return newScalarAligner(s, theta, Config{}), nil
}

// mustAligner is newAligner outside a query: context.Background carries
// neither a deadline nor a memory budget, the only ways the build fails.
func mustAligner(s *tp.Relation, theta tp.EquiTheta, cfg Config) aligner {
	al, err := newAligner(context.Background(), s, theta, cfg)
	if err != nil {
		panic(err)
	}
	return al
}

// groupMeta locates one key group's compiled event list inside the
// indexedAligner's flat arenas.
type groupMeta struct {
	bLo int32 // start of the group's bounds span
	bN  int32 // number of bounds (segments = bN-1)
	oLo int32 // start of the group's bN segment offsets in segOff
}

// indexedAligner is the batched-substrate alignment pipeline for one join
// direction (inner relation s under θ). Building it costs one pass to
// hash-group s by its interned key plus, per group, an endpoint sort and
// a counting-sort of the segment covers into flat arenas;
// draining an outer relation against it is then output-linear — split
// points by binary search into the group's bounds, covers as borrowed
// arena slices — with no per-tuple or per-fragment allocations. One
// instance serves every alignment pass of a join (sub-queries A and B
// re-drain it; the re-enumeration is the measured redundancy, the index
// reuse is not).
type indexedAligner struct {
	s      *tp.Relation
	eq     tp.EquiTheta
	groups *tp.KeyGroups[int32]
	gmeta  []groupMeta
	bounds []interval.Time // per group: sorted unique interval endpoints
	segOff []int32         // per group: bN offsets into cover (segment j spans segOff[j]..segOff[j+1])
	cover  []int32         // per segment: covering tuple indexes, ascending

	// build scratch, reused across groups
	scratch []interval.Time
	diff    []int32
	cur     []int32
}

// maxCoverArena bounds the cover arena (entries): the per-segment covers
// total Σ active ≈ the overlapping same-key pairs, which a skewed one-key
// relation makes quadratic — unbounded, the arena would exhaust memory
// (and overflow its int32 offsets) where the scalar aligner needs only
// O(n) extra space. Past the bound newAligner hands out the scalar
// aligner for the whole direction; it is a var so tests can exercise the
// fallback cheaply.
var maxCoverArena = int64(1) << 26

func newIndexedAligner(s *tp.Relation, eq tp.EquiTheta) *indexedAligner {
	ix := &indexedAligner{s: s, eq: eq, groups: tp.NewKeyGroups[int32]()}

	// Hash-group the inner relation by its interned equi key. Tuples with
	// NULL key columns match nothing and never cover anything; empty
	// intervals can neither split nor cover. Both are excluded here, which
	// is exactly how the scalar reference's overlap/containment checks
	// treat them.
	for i := range s.Tuples {
		t := &s.Tuples[i]
		if t.T.Empty() {
			continue
		}
		h, ok := eq.SKeyHash(t.Fact)
		if !ok {
			continue
		}
		g := ix.groups.Group(h, t.Fact, eq.SKeyEqual)
		g.Vals = append(g.Vals, int32(i))
	}
	return ix
}

func (ix *indexedAligner) cheapCount() bool { return true }

// build compiles every key group's endpoint event list, observing the
// query context and charging its memory budget. fits is false when the
// cover arena would exceed maxCoverArena; the aligner must then be
// dropped unused.
func (ix *indexedAligner) build(ctx context.Context) (fits bool, err error) {
	groups := ix.groups.Groups()
	ix.gmeta = slices.Grow(ix.gmeta, len(groups))
	gauge := mem.FromContext(ctx)
	work := 0
	for gi := range groups {
		vals := groups[gi].Vals

		// Sorted unique endpoints of the group's tuples.
		ix.scratch = ix.scratch[:0]
		for _, si := range vals {
			t := ix.s.Tuples[si].T
			ix.scratch = append(ix.scratch, t.Start, t.End)
		}
		slices.Sort(ix.scratch)
		bounds := dedupTimes(ix.scratch) // defined in scalar.go, shared
		m := groupMeta{bLo: int32(len(ix.bounds)), bN: int32(len(bounds)), oLo: int32(len(ix.segOff))}
		ix.bounds = append(ix.bounds, bounds...)
		segs := int(m.bN) - 1

		// Counting pass: per elementary segment, how many tuples are
		// active (difference array over the tuples' segment spans).
		// Reuse the scratch in place — no per-group temporaries. The
		// 64-bit span total guards the arena: the per-segment covers sum
		// to the overlapping same-key pairs, which a skewed one-key
		// relation makes quadratic — past maxCoverArena (or anywhere near
		// the arenas' int32 offsets) the build gives up and the scalar
		// aligner computes the same fragments in O(n) extra memory.
		ix.diff = slices.Grow(ix.diff[:0], segs+1)[:segs+1]
		clear(ix.diff)
		b := ix.bounds[m.bLo : m.bLo+m.bN]
		spanTotal := int64(len(ix.cover))
		for _, si := range vals {
			t := ix.s.Tuples[si].T
			a, _ := slices.BinarySearch(b, t.Start)
			e, _ := slices.BinarySearch(b, t.End)
			ix.diff[a]++
			ix.diff[e]--
			spanTotal += int64(e - a)
		}
		if spanTotal > maxCoverArena {
			return false, nil
		}
		// Prefix-sum into cover offsets (absolute into the arena).
		off := int32(len(ix.cover))
		run := int32(0)
		ix.cur = ix.cur[:0]
		for j := 0; j < segs; j++ {
			ix.segOff = append(ix.segOff, off)
			ix.cur = append(ix.cur, off)
			run += ix.diff[j]
			off += run
		}
		ix.segOff = append(ix.segOff, off)
		// Fill pass: scatter each tuple into its segments. Iterating vals
		// in ascending tuple order keeps every segment's cover sorted —
		// the order the scalar reference's candidate scan produces. The
		// arena extension needs no zeroing: the cursors write every slot
		// of the new span exactly once. The growth is the aligner's
		// dominant allocation (quadratic on skewed keys), so it is where
		// the per-query memory budget bites first.
		if err := gauge.Charge(int64(int(off)-len(ix.cover)) * int64(unsafe.Sizeof(ix.cover[0]))); err != nil {
			return false, err
		}
		ix.cover = slices.Grow(ix.cover, int(off)-len(ix.cover))[:off]
		for _, si := range vals {
			t := ix.s.Tuples[si].T
			a, _ := slices.BinarySearch(b, t.Start)
			e, _ := slices.BinarySearch(b, t.End)
			for j := a; j < e; j++ {
				ix.cover[ix.cur[j]] = si
				ix.cur[j]++
			}
			if work += e - a + 1; work >= drainCancelWork {
				work = 0
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
		}
		ix.gmeta = append(ix.gmeta, m)
	}
	return true, nil
}

func (ix *indexedAligner) drain(ctx context.Context, r *tp.Relation, emit emitFunc) error {
	work := 0
	for ri := range r.Tuples {
		if ri%alignCancelCheck == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rt := &r.Tuples[ri]
		if rt.T.Empty() {
			continue // no fragments, matching the scalar reference
		}
		var m groupMeta
		found := false
		if h, ok := ix.eq.RKeyHash(rt.Fact); ok {
			gi := ix.groups.Find(h, rt.Fact, func(group, probe tp.Fact) bool {
				return ix.eq.Match(probe, group)
			})
			if gi >= 0 {
				m = ix.gmeta[gi]
				found = true
			}
		}
		if !found {
			if err := emit(ri, rt.T, nil); err != nil {
				return err
			}
			continue
		}

		// Fragment boundaries: the group endpoints strictly inside the
		// tuple's interval (all of them belong to overlapping, matching
		// tuples — an endpoint inside (start,end) implies overlap, and
		// group membership implies θ). Each fragment lies within one
		// elementary segment of the group's endpoint partition, so its
		// cover is that segment's precomputed active list.
		b := ix.bounds[m.bLo : m.bLo+m.bN]
		lo := sort.Search(len(b), func(i int) bool { return b[i] > rt.T.Start })
		p := rt.T.Start
		seg := lo - 1
		for k := lo; k < len(b) && b[k] < rt.T.End; k++ {
			cov := ix.segCover(m, seg)
			if err := emit(ri, interval.Interval{Start: p, End: b[k]}, cov); err != nil {
				return err
			}
			if work += len(cov) + 1; work >= drainCancelWork {
				work = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			p = b[k]
			seg = k
		}
		cov := ix.segCover(m, seg)
		if err := emit(ri, interval.Interval{Start: p, End: rt.T.End}, cov); err != nil {
			return err
		}
		if work += len(cov) + 1; work >= drainCancelWork {
			work = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// segCover returns the covering tuples of elementary segment seg of the
// group, nil when the fragment lies outside the group's endpoint range.
func (ix *indexedAligner) segCover(m groupMeta, seg int) []int32 {
	if seg < 0 || seg >= int(m.bN)-1 {
		return nil
	}
	return ix.cover[ix.segOff[m.oLo+int32(seg)]:ix.segOff[m.oLo+int32(seg)+1]]
}

// materializeFragments drains al over r into a Fragment slice (the
// compatibility shape of Align/ScalarAlign; the join paths stream
// instead).
func materializeFragments(al aligner, r *tp.Relation) []Fragment {
	var out []Fragment
	_ = al.drain(context.Background(), r, func(ri int, t interval.Interval, cover []int32) error {
		f := Fragment{RID: ri, T: t}
		if len(cover) > 0 {
			f.Cover = make([]int, len(cover))
			for i, si := range cover {
				f.Cover[i] = int(si)
			}
		}
		out = append(out, f)
		return nil
	})
	return out
}

// Align performs the two conventional joins of the TA reduction for one
// direction: it splits every outer tuple at the boundaries of its matching
// inner tuples (join 1) and computes, for every fragment, the covering
// matching inner tuples (join 2). The fragments of each outer tuple
// partition its validity interval. Align materializes the fragments for
// inspection; the join paths stream them instead.
func Align(r, s *tp.Relation, theta tp.EquiTheta, cfg Config) []Fragment {
	return materializeFragments(mustAligner(s, theta, cfg), r)
}

// CountWUO runs sub-query A (the aligned outer join) and returns the
// number of produced rows without forming output tuples or probabilities.
// It is the TA counterpart of draining core.LAWAU, used by the Fig. 5
// benchmark: TA pays both conventional joins of the alignment step where
// NJ pays one.
func CountWUO(r, s *tp.Relation, theta tp.EquiTheta, cfg Config) int {
	n := 0
	_ = mustAligner(s, theta, cfg).drain(context.Background(), r, func(ri int, t interval.Interval, cover []int32) error {
		if len(cover) == 0 {
			n++
		} else {
			n += len(cover)
		}
		return nil
	})
	return n
}

// CountNegating runs sub-query B (the negated part) and returns the number
// of produced rows without forming output tuples. It is the TA counterpart
// of the LAWAN sweep, used by the Fig. 6 benchmark: TA re-enumerates the
// aligned fragments to derive the negated part.
func CountNegating(r, s *tp.Relation, theta tp.EquiTheta, cfg Config) int {
	n := 0
	_ = mustAligner(s, theta, cfg).drain(context.Background(), r, func(ri int, t interval.Interval, cover []int32) error {
		n++
		return nil
	})
	return n
}

// Join computes the TP join r op s under θ with the alignment strategy:
//
//   - tp.OpInner, r ⋈Tp s: only the pairing rows of the aligned outer
//     join;
//   - tp.OpAnti, r ▷Tp s: only sub-query B, over r's schema;
//   - tp.OpLeft, r ⟕Tp s: sub-queries A and B over one alignment,
//     combined by the duplicate-eliminating union;
//   - tp.OpRight, r ⟖Tp s: the mirrored left outer join;
//   - tp.OpFull, r ⟗Tp s: pairings from the forward direction,
//     negated/unmatched fragments from both, unioned with dedup.
//
// Every other op panics.
func Join(op tp.Op, r, s *tp.Relation, theta tp.EquiTheta, cfg Config) *tp.Relation {
	out, _ := JoinContext(context.Background(), op, r, s, theta, cfg, nil)
	return out
}

// JoinContext is Join under a query context: the index builds and the
// alignment passes (the blocking part of the baseline) observe ctx every
// alignCancelCheck outer tuples and every drainCancelWork units of work
// inside one tuple's fragment drain, the probability tail per batch, so a
// per-query timeout or client disconnect aborts the materializing Open
// mid-alignment instead of running both conventional joins to completion
// — even when all the work sits in one key group. On cancellation the
// result is nil and the error is ctx.Err(). A non-nil stats additionally
// accounts fragments, alignment passes and pre-union rows for EXPLAIN
// ANALYZE.
//
// Every operator and every plan — indexed, nested-loop, arena guard
// fallback — runs the one streaming tail (stream.go); the plans
// differ only in the aligner newAligner hands out per pass.
func JoinContext(ctx context.Context, op tp.Op, r, s *tp.Relation, theta tp.EquiTheta, cfg Config, stats *Stats) (*tp.Relation, error) {
	red, ok := reductions[op]
	if !ok {
		panic(fmt.Sprintf("align: unknown operator %v", op))
	}
	// One aligner per alignment pass: one pass, or two for the full outer
	// join.
	als := make([]aligner, len(red.passes))
	for i, p := range red.passes {
		al, err := p.aligner(ctx, r, s, theta, cfg)
		if err != nil {
			return nil, err
		}
		als[i] = al
	}
	return red.stream(ctx, r, s, stats, als...)
}
