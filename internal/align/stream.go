package align

// This file is the tail of the TA reduction every join runs: the fused
// alignment drain, the duplicate-eliminating union over interned facts,
// and the batched probability finish.
//
// The reference tail (reference_test.go, the byte-identity oracle)
// evaluates a join with negation as two sub-queries over the same
// alignment — the aligned outer join (A: pairings + unmatched fragments)
// and the negated part (B: negated + unmatched fragments again) —
// materializes both row sets with fully formed facts, sorts them, and
// duplicate-eliminates. Both sub-queries enumerate the *same* fragment
// stream in the *same* order off one aligner, so the fused drain merges
// them at the frontier instead: one enumeration emits A's rows and B's
// rows together, and the duplicated unmatched fragments — identical
// (fact, interval, lineage) rows by construction — are emitted once and
// counted in Stats.DupAvoided. Row formation is deferred too: a streamed
// row carries an interned fact id instead of a materialized fact slice,
// so the union sorts by a precomputed integer rank (one comparison sort
// over the small fact table) rather than lexicographically comparing
// facts row by row, and output tuples share the interned fact slices.
//
// Merge-order invariant: every streamed row carries ord = (sub-query,
// emission index) — A rows order before B rows before the mirror pass's
// rows, each in drain order, and the fused unmatched row takes its A
// ordinal while the B ordinal is still consumed. This makes the union's
// (fact, interval, lineage-hash, ord) sort a permutation-identical
// replay of the reference's concatenate-then-sort order, which is what
// keeps the streamed join byte-identical to the oracle (row order,
// lineage rendering, probabilities) — property-tested in equiv_test.go
// and stream_test.go.
//
// Surviving rows are evaluated through prob.BatchEvaluator in
// probBatchSize chunks (shared memo across the join, counters surfaced as
// prob-batches / memo-hits / shannon-steps in EXPLAIN ANALYZE), with a
// cancellation + memory-budget checkpoint per chunk.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"unsafe"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/mem"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// probBatchSize is how many union survivors are evaluated per
// probability batch — matching the core pipeline's window batch size, so
// the whole query runs on one batch granularity.
const probBatchSize = 256

// maxStreamPresize clamps the presized row buffer (entries): the memory
// gauge is the budget guard, but an uncharged pathological workload must
// not commit the process to one near-unbounded allocation either. The
// clamp sits well above the realistic workloads (4M rows ≈ 160 MiB), so
// the exact counted presize normally allocates once; beyond it, append
// growth takes over.
const maxStreamPresize = 1 << 22

// srow is one not-yet-deduplicated streamed row. fid indexes the join's
// interned fact table (streamUnion.facts); ord encodes (sub-query,
// emission index) and reproduces the reference path's concatenation
// order as the union's final tiebreaker.
type srow struct {
	lam *lineage.Expr
	t   interval.Interval
	ord uint64
	fid int32
}

// ord layout: the sub-query tag in the high bits — per pass, sub-query A
// (pairings + unmatched) before sub-query B (negated + unmatched), and
// the full outer join's mirror pass after the forward one — and the
// per-sub-query emission index below. 2^40 rows per sub-query is far
// beyond the int32 fact table the union indexes.
const ordSegShift = 40

// streamUnion accumulates the streamed rows and the interned fact table
// of one join.
type streamUnion struct {
	rows  []srow
	facts []tp.Fact
}

// drainMode selects which of the reference sub-queries a fused drain
// emits.
type drainMode uint8

const (
	// drainPairsOnly emits only sub-query A's pairing rows (inner join:
	// the reference materializes unmatched rows and filters them out;
	// the stream never forms them).
	drainPairsOnly drainMode = iota
	// drainFused emits sub-queries A and B merged: pairings, negated
	// fragments, and each unmatched fragment once (the reference emits
	// it per sub-query; the duplicate dies at the frontier).
	drainFused
	// drainNegOnly emits only sub-query B: negated + unmatched
	// fragments (anti join, and the full outer join's mirror pass,
	// where no pairing rows accompany the drain).
	drainNegOnly
)

// fusedDrain is the per-drain emission state: the drained (outer) and
// indexed (inner) relations, the fact-interning tables, and the
// per-sub-query ordinal counters.
type fusedDrain struct {
	su     *streamUnion
	outer  *tp.Relation
	inner  *tp.Relation
	mode   drainMode
	mirror bool // inner fact left of outer fact; nulls lead unmatched facts
	anti   bool // unmatched/negated rows keep the outer schema (no nulls)

	nulls    tp.Fact // shared null pad, allocated once per drain
	outerFid []int32 // per outer tuple: interned fid of its padded fact
	pairs    map[uint64]pairEnt
	orMemo   map[uint64][]orEnt

	segPair, segNeg uint64 // ord tags for this drain's A / B rows
	aSeq, bSeq      uint64
	parts           []*lineage.Expr // scratch for ∨λs
	dupAvoided      int64
}

// pairEnt interns one (outer, inner) pairing: its concatenated output
// fact and its ∧ lineage, shared by every fragment of the pair.
type pairEnt struct {
	fid int32
	lam *lineage.Expr
}

// orEnt interns one cover's ∨λs disjunction, keyed by the cover's
// content hash. The cover is copied: indexed drains borrow arena slices,
// the scalar fallback reuses a scratch buffer.
type orEnt struct {
	cover []int32
	or    *lineage.Expr
}

// newFusedDrain prepares pass number seq of a join: its rows order after
// those of every earlier pass.
func newFusedDrain(su *streamUnion, outer, inner *tp.Relation, mode drainMode, mirror, anti bool, seq uint64) *fusedDrain {
	d := &fusedDrain{
		su: su, outer: outer, inner: inner,
		mode: mode, mirror: mirror, anti: anti,
		segPair: 2 * seq, segNeg: 2*seq + 1,
	}
	if mode != drainPairsOnly {
		d.outerFid = make([]int32, len(outer.Tuples))
		for i := range d.outerFid {
			d.outerFid[i] = -1
		}
		d.orMemo = make(map[uint64][]orEnt)
		if !anti {
			d.nulls = tp.Nulls(inner.Arity())
		}
	}
	if mode != drainNegOnly {
		d.pairs = make(map[uint64]pairEnt)
	}
	return d
}

// outerFidOf interns the outer tuple's unmatched/negated output fact:
// the fact padded with nulls on the inner side (outer schema alone for
// the anti join). One fact serves every fragment of the tuple — and
// both sub-queries, where the reference allocated one per row.
func (d *fusedDrain) outerFidOf(ri int, rt *tp.Tuple) int32 {
	if fid := d.outerFid[ri]; fid >= 0 {
		return fid
	}
	var fact tp.Fact
	switch {
	case d.anti:
		fact = rt.Fact
	case d.mirror:
		fact = d.nulls.Concat(rt.Fact)
	default:
		fact = rt.Fact.Concat(d.nulls)
	}
	fid := int32(len(d.su.facts))
	d.su.facts = append(d.su.facts, fact)
	d.outerFid[ri] = fid
	return fid
}

// pairOf interns the pairing of (outer ri, inner si): its concatenated
// fact and its ∧ lineage. A pair split into k fragments re-uses one fact
// and one lineage node where the reference concatenated and rebuilt k
// times — and the shared node turns the probability memo's Equal checks
// into pointer comparisons.
func (d *fusedDrain) pairOf(ri int, si int32, rt, st *tp.Tuple) pairEnt {
	key := uint64(uint32(ri))<<32 | uint64(uint32(si))
	if ent, ok := d.pairs[key]; ok {
		return ent
	}
	var fact tp.Fact
	if d.mirror {
		fact = st.Fact.Concat(rt.Fact)
	} else {
		fact = rt.Fact.Concat(st.Fact)
	}
	ent := pairEnt{fid: int32(len(d.su.facts)), lam: lineage.And(rt.Lineage, st.Lineage)}
	d.su.facts = append(d.su.facts, fact)
	d.pairs[key] = ent
	return ent
}

// orOf interns the ∨λs disjunction of a cover by content: outer tuples
// of one key group repeat the same elementary segments, so their negated
// fragments share one disjunction node instead of rebuilding (and
// re-hashing) a k-ary Or per fragment.
func (d *fusedDrain) orOf(cover []int32) *lineage.Expr {
	h := coverHash(cover)
	for _, e := range d.orMemo[h] {
		if slices.Equal(e.cover, cover) {
			return e.or
		}
	}
	d.parts = d.parts[:0]
	for _, si := range cover {
		d.parts = append(d.parts, d.inner.Tuples[si].Lineage)
	}
	or := lineage.Or(d.parts...)
	d.orMemo[h] = append(d.orMemo[h], orEnt{cover: slices.Clone(cover), or: or})
	return or
}

// coverHash is FNV-1a over the cover's tuple indexes.
func coverHash(cover []int32) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range cover {
		h ^= uint64(uint32(c))
		h *= 1099511628211
	}
	return h
}

// emit translates one aligned fragment into streamed rows. The ordinal
// bookkeeping mirrors the reference exactly: aSeq advances for every
// sub-query-A row (pairings and unmatched), bSeq for every fragment's
// sub-query-B row — including the fused unmatched row, whose B ordinal
// is consumed even though the duplicate row is never formed.
func (d *fusedDrain) emit(ri int, t interval.Interval, cover []int32) error {
	rt := &d.outer.Tuples[ri]
	su := d.su
	if len(cover) == 0 {
		switch d.mode {
		case drainPairsOnly:
			// Inner join: the reference forms the unmatched row and
			// filters it before the union; the stream skips it outright.
		case drainFused:
			su.rows = append(su.rows, srow{
				lam: rt.Lineage, t: t,
				ord: d.segPair<<ordSegShift | d.aSeq,
				fid: d.outerFidOf(ri, rt),
			})
			d.aSeq++
			d.bSeq++ // sub-query B's duplicate, killed at the frontier
			d.dupAvoided++
		case drainNegOnly:
			su.rows = append(su.rows, srow{
				lam: rt.Lineage, t: t,
				ord: d.segNeg<<ordSegShift | d.bSeq,
				fid: d.outerFidOf(ri, rt),
			})
			d.bSeq++
		}
		return nil
	}
	if d.mode != drainNegOnly {
		for _, si := range cover {
			ent := d.pairOf(ri, si, rt, &d.inner.Tuples[si])
			su.rows = append(su.rows, srow{
				lam: ent.lam, t: t,
				ord: d.segPair<<ordSegShift | d.aSeq,
				fid: ent.fid,
			})
			d.aSeq++
		}
	}
	if d.mode != drainPairsOnly {
		su.rows = append(su.rows, srow{
			lam: lineage.AndNot(rt.Lineage, d.orOf(cover)), t: t,
			ord: d.segNeg<<ordSegShift | d.bSeq,
			fid: d.outerFidOf(ri, rt),
		})
		d.bSeq++
	}
	return nil
}

// run drains al over the outer relation through emit, accounting one
// alignment pass. A fused drain counts as one pass: the reference's two
// sub-query enumerations are merged into it, which is the point.
func (d *fusedDrain) run(ctx context.Context, al aligner, stats *Stats) error {
	frags := int64(0)
	err := al.drain(ctx, d.outer, func(ri int, t interval.Interval, cover []int32) error {
		frags++
		return d.emit(ri, t, cover)
	})
	if err != nil {
		return err
	}
	if stats != nil {
		stats.AlignPasses++
		stats.Fragments += frags
		stats.DupAvoided += d.dupAvoided
	}
	d.dupAvoided = 0
	return nil
}

// drainCounts sizes one drain's row production without forming rows.
type drainCounts struct {
	pairs     int // sub-query A pairing rows
	unmatched int // fragments with an empty cover
	covered   int // fragments with a non-empty cover (sub-query B negated rows)
}

// countDrain runs the counting pass for one drain direction. Counting
// gates on cheapCount: the indexed pipeline re-drains its event index
// for near-free, while the scalar aligner would pay a full extra scan —
// those plans must never pay the counting pass (ok=false; the caller
// falls back to append growth).
func countDrain(ctx context.Context, al aligner, outer *tp.Relation) (c drainCounts, ok bool, err error) {
	if !al.cheapCount() {
		return drainCounts{}, false, nil
	}
	err = al.drain(ctx, outer, func(ri int, t interval.Interval, cover []int32) error {
		if len(cover) == 0 {
			c.unmatched++
		} else {
			c.pairs += len(cover)
			c.covered++
		}
		return nil
	})
	return c, err == nil, err
}

// rowsFor is the exact pre-union row count of a counted drain under the
// given mode — presize equals materialized rows, instead of the
// reference sizing's outRows+frags over-count (which billed the fused
// path for duplicates it never forms).
func (c drainCounts) rowsFor(mode drainMode) int {
	switch mode {
	case drainPairsOnly:
		return c.pairs
	case drainFused:
		return c.pairs + c.covered + c.unmatched
	default: // drainNegOnly
		return c.covered + c.unmatched
	}
}

// presizeStream allocates the streamed row buffer for n expected rows,
// charging it against the query's memory budget. n <= 0 (an uncounted
// drain) yields a nil buffer and append growth takes over.
func presizeStream(ctx context.Context, n int) ([]srow, error) {
	if n <= 0 {
		return nil, nil
	}
	if n > maxStreamPresize {
		n = maxStreamPresize
	}
	if err := mem.FromContext(ctx).Charge(int64(n) * int64(unsafe.Sizeof(srow{}))); err != nil {
		return nil, err
	}
	return make([]srow, 0, n), nil
}

// union orders the streamed rows by (fact rank, interval, lineage hash,
// ord) and collapses adjacent equal (fact, interval, lineage) rows — the
// duplicate-eliminating union of the paper on interned facts. Because
// ord replays the reference's concatenation order and the fact ranks
// replay fact.Compare, the surviving rows and their order are exactly
// the reference union's output.
//
// The ordering is two-level: a counting sort scatters the rows into their
// fact-rank buckets in O(n) (stable, though stability is moot — ord makes
// the within-bucket comparator a total order), and each bucket is then
// sorted by (interval, hash, ord) alone. This replaces the reference's
// global comparison sort, whose comparator re-compared facts
// lexicographically on every probe, with one linear scatter plus many
// small cache-resident sorts that never look at a fact again.
func (su *streamUnion) union(ctx context.Context, stats *Stats) ([]srow, error) {
	if stats != nil {
		stats.Rows += int64(len(su.rows))
	}
	if len(su.rows) < 2 {
		return su.rows, nil
	}
	rank, nRanks := su.rankFacts()
	if err := mem.FromContext(ctx).Charge(int64(len(su.rows))*int64(unsafe.Sizeof(srow{})) +
		int64(nRanks+1)*int64(unsafe.Sizeof(int32(0)))); err != nil {
		return nil, err
	}
	// Counting sort by fact rank: bucket offsets, then scatter.
	off := make([]int32, nRanks+1)
	for i := range su.rows {
		off[rank[su.rows[i].fid]+1]++
	}
	for r := 0; r < nRanks; r++ {
		off[r+1] += off[r]
	}
	next := make([]int32, nRanks)
	copy(next, off[:nRanks])
	sorted := make([]srow, len(su.rows))
	for i := range su.rows {
		r := rank[su.rows[i].fid]
		sorted[next[r]] = su.rows[i]
		next[r]++
	}
	// Order each rank bucket by (interval, lineage hash, ord); facts are
	// settled by the bucketing.
	for r := 0; r < nRanks; r++ {
		if b := sorted[off[r]:off[r+1]]; len(b) > 1 {
			slices.SortFunc(b, cmpWithinRank)
		}
	}
	// Collapse adjacent equal rows in place. Facts share a rank exactly
	// when they are Equal, so the rank stands in for the fact.
	out := sorted[:1]
	for n := 1; n < len(sorted); n++ {
		rw := &sorted[n]
		prev := &out[len(out)-1]
		if rank[prev.fid] == rank[rw.fid] && prev.t.Equal(rw.t) && prev.lam.Equal(rw.lam) {
			continue
		}
		out = append(out, *rw)
	}
	return out, nil
}

// cmpWithinRank orders two rows of one fact-rank bucket: interval, then
// lineage hash, then ord (the reference's input-index tiebreak).
func cmpWithinRank(a, b srow) int {
	if c := a.t.Compare(b.t); c != 0 {
		return c
	}
	ha, hb := a.lam.Hash(), b.lam.Hash()
	switch {
	case ha < hb:
		return -1
	case ha > hb:
		return 1
	default:
		return cmp.Compare(a.ord, b.ord)
	}
}

// rankFacts orders the interned fact table once by fact.Compare and
// assigns each fact its equivalence-class rank (Equal facts share a
// rank). It returns the per-fid rank table and the number of rank
// classes.
func (su *streamUnion) rankFacts() ([]int32, int) {
	n := len(su.facts)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		if c := su.facts[i].Compare(su.facts[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	rank := make([]int32, n)
	r := int32(0)
	for k, fi := range perm {
		if k > 0 && su.facts[perm[k-1]].Compare(su.facts[fi]) != 0 {
			r++
		}
		rank[fi] = r
	}
	if n == 0 {
		return rank, 0
	}
	return rank, int(r) + 1
}

// finish forms the output relation from the union survivors, evaluating
// probabilities in probBatchSize chunks through prob.BatchEvaluator (one
// memo across the join; Stats.ProbBatches / MemoHits / ShannonSteps surface
// it in EXPLAIN ANALYZE). Output tuples alias the interned fact
// slices — facts are immutable, and duplicates of one source tuple share
// storage instead of repeating it.
func (su *streamUnion) finish(ctx context.Context, name string, attrs []string, probs prob.Probs, rows []srow, stats *Stats) (*tp.Relation, error) {
	rel := &tp.Relation{Name: name, Attrs: attrs, Probs: probs}
	if err := mem.FromContext(ctx).Charge(int64(len(rows)) * int64(unsafe.Sizeof(tp.Tuple{}))); err != nil {
		return nil, err
	}
	rel.Tuples = make([]tp.Tuple, len(rows))
	bev := prob.NewBatchEvaluator(probs)
	var lams [probBatchSize]*lineage.Expr
	var ps [probBatchSize]float64
	// The drains intern lineages, and the union orders fragments of one
	// pairing adjacently — runs of pointer-identical lineages are common,
	// and one evaluation serves the whole run.
	var prevLam *lineage.Expr
	var prevP float64
	for lo := 0; lo < len(rows); lo += probBatchSize {
		// Per-batch cancellation checkpoint: a timeout or disconnect
		// aborts between probability batches, not after the whole tail.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+probBatchSize, len(rows))
		m := 0
		last := prevLam
		for i := lo; i < hi; i++ {
			if rows[i].lam != last {
				last = rows[i].lam
				lams[m] = last
				m++
			}
		}
		if m > 0 {
			bev.EvalBatch(lams[:m], ps[:])
		}
		k := 0
		for i := lo; i < hi; i++ {
			rw := &rows[i]
			if rw.lam != prevLam {
				prevLam = rw.lam
				prevP = ps[k]
				k++
			}
			rel.Tuples[i] = tp.Tuple{Fact: su.facts[rw.fid], Lineage: rw.lam, T: rw.t, Prob: prevP}
		}
	}
	if stats != nil {
		stats.ProbBatches += bev.Batches()
		stats.MemoHits += bev.MemoHits()
		stats.ShannonSteps += bev.ShannonSteps()
	}
	return rel, nil
}

// pass is one alignment drain of an operator's TA reduction.
type pass struct {
	mode drainMode
	// mirror drains s against the aligner over r (built under the swapped
	// θ): r's facts stay left in the output, nulls lead unmatched facts.
	mirror bool
}

// sides returns the relation the pass drains and the one its aligner
// indexes.
func (p pass) sides(r, s *tp.Relation) (outer, inner *tp.Relation) {
	if p.mirror {
		return s, r
	}
	return r, s
}

// aligner builds the pass's probe-side access path: over s under θ, or —
// mirrored — over r under the swapped θ.
func (p pass) aligner(ctx context.Context, r, s *tp.Relation, theta tp.EquiTheta, cfg Config) (aligner, error) {
	if p.mirror {
		return newAligner(ctx, r, tp.Swap(theta), cfg)
	}
	return newAligner(ctx, s, theta, cfg)
}

// reduction is the TA reduction of one join operator: the result-name
// tag, whether the result keeps r's schema alone, and the alignment
// passes in the order the reference concatenates their rows.
type reduction struct {
	tag    string
	anti   bool
	passes []pass
}

var reductions = map[tp.Op]reduction{
	tp.OpInner: {tag: "join", passes: []pass{{mode: drainPairsOnly}}},
	tp.OpAnti:  {tag: "anti", anti: true, passes: []pass{{mode: drainNegOnly}}},
	tp.OpLeft:  {tag: "louter", passes: []pass{{mode: drainFused}}},
	tp.OpRight: {tag: "router", passes: []pass{{mode: drainFused, mirror: true}}},
	// Pairings come from the forward pass alone; the mirror pass adds s's
	// negated and unmatched fragments.
	tp.OpFull: {tag: "fouter", passes: []pass{{mode: drainFused}, {mode: drainNegOnly, mirror: true}}},
}

// stream runs the streaming tail over als, one aligner per pass: count
// the rows (only where every aligner counts cheaply) and presize the row
// buffer exactly, run the fused drains, union, and evaluate the survivors
// in probability batches.
func (red reduction) stream(ctx context.Context, r, s *tp.Relation, stats *Stats, als ...aligner) (*tp.Relation, error) {
	presize := 0
	for i, p := range red.passes {
		outer, _ := p.sides(r, s)
		c, counted, err := countDrain(ctx, als[i], outer)
		if err != nil {
			return nil, err
		}
		if !counted {
			presize = 0 // append growth takes over
			break
		}
		presize += c.rowsFor(p.mode)
	}
	buf, err := presizeStream(ctx, presize)
	if err != nil {
		return nil, err
	}
	su := &streamUnion{rows: buf}
	for i, p := range red.passes {
		outer, inner := p.sides(r, s)
		d := newFusedDrain(su, outer, inner, p.mode, p.mirror, red.anti, uint64(i))
		if err := d.run(ctx, als[i], stats); err != nil {
			return nil, err
		}
	}
	rows, err := su.union(ctx, stats)
	if err != nil {
		return nil, err
	}
	var attrs []string
	if red.anti {
		attrs = slices.Clone(r.Attrs)
	} else {
		attrs = slices.Concat(r.Attrs, s.Attrs)
	}
	return su.finish(ctx, fmt.Sprintf("%s_%s_%s", r.Name, red.tag, s.Name), attrs, tp.MergeProbs(r, s), rows, stats)
}
