package core

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"tpjoin/internal/lineage"
	"tpjoin/internal/mem"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// This file composes the window streams into the TP join operators
// following Table II of the paper:
//
//	r ▷ s   : WU(r;s,θ) ∪ WN(r;s,θ)
//	r ⟕ s  : WU(r;s,θ) ∪ WN(r;s,θ) ∪ WO(r;s,θ)
//	r ⟖ s  : WO(r;s,θ) ∪ WU(s;r,θ) ∪ WN(s;r,θ)
//	r ⟗ s  : all five sets
//	r ⋈ s   : WO(r;s,θ)
//
// and forms one output tuple per window with the lineage-concatenation
// function of its class: and(λr,λs) for overlapping, λr for unmatched and
// andNot(λr,λs) = λr ∧ ¬λs for negating windows.

// TupleIterator is a pull-based stream of output tuples; the join
// operators produce their results through it without materializing, which
// is how they plug into the pipelined executor (internal/engine).
type TupleIterator interface {
	Next() (tp.Tuple, bool)
}

// classes is a set of window classes.
type classes uint8

const (
	wo classes = 1 << window.Overlapping
	wu classes = 1 << window.Unmatched
	wn classes = 1 << window.Negating
)

// phase is one window pipeline of an operator: how far it extends past
// the overlap join (0 stops there, 1 adds LAWAU, 2 adds LAWAU → LAWAN),
// which window classes form output tuples, and whether it runs with the
// inputs swapped — over (s, r, Swap θ), so that the window's Fr is a fact
// of s and output facts are reassembled in (r, s) attribute order.
type phase struct {
	sweeps int
	keep   classes
	mirror bool
}

// operator is one row of the operator table: the result-name tag, whether
// the result keeps r's schema alone (no NULL extension, overlapping
// windows contribute Fr), whether overlapping windows concatenate their
// lineages with ∨ instead of ∧, and the phases in output order.
type operator struct {
	tag     string
	rSchema bool
	or      bool
	phases  []phase
}

// operators is Table II. The mirrored phase of the full outer join keeps
// no overlapping windows: the forward phase already produced them.
var operators = map[tp.Op]operator{
	tp.OpInner: {tag: "join", phases: []phase{{keep: wo}}},
	tp.OpAnti:  {tag: "anti", rSchema: true, phases: []phase{{sweeps: 2, keep: wu | wn}}},
	tp.OpLeft:  {tag: "louter", phases: []phase{{sweeps: 2, keep: wo | wu | wn}}},
	tp.OpRight: {tag: "router", phases: []phase{{sweeps: 2, keep: wo | wu | wn, mirror: true}}},
	tp.OpFull: {tag: "fouter", phases: []phase{
		{sweeps: 2, keep: wo | wu | wn}, {sweeps: 2, keep: wu | wn, mirror: true}}},
}

// The set operations of the companion paper (see internal/setops) are two
// more rows, over the same windows under full-fact θ: r ∪ s keeps the
// overlapping windows as λr ∨ λs plus the unmatched windows of either
// side, r ∩ s the overlapping windows as λr ∧ λs. (r − s is the anti
// join.) Neither needs a negating window, so neither runs LAWAN.
var (
	unionOp = operator{tag: "union", rSchema: true, or: true, phases: []phase{
		{sweeps: 1, keep: wo | wu}, {sweeps: 1, keep: wu, mirror: true}}}
	intersectOp = operator{tag: "intersect", rSchema: true, phases: []phase{{keep: wo}}}
)

func lookup(op tp.Op) operator {
	o, ok := operators[op]
	if !ok {
		panic(fmt.Sprintf("core: unknown operator %v", op))
	}
	return o
}

// pipelineBytes reports the fixed buffer bytes a stream of o owns at
// most: one window transfer buffer for the tail plus one input buffer per
// sweep stage, each at most BatchSize windows (see hopSize), plus the
// probability tail's tuple/lineage/probability arenas. The buffers are
// allocated lazily, but budget-wise the query owns them for its lifetime,
// so a per-query memory gauge charges this amount at stream construction.
func (o operator) pipelineBytes() int64 {
	stages := 1
	for _, ph := range o.phases {
		stages += ph.sweeps
	}
	windows := int64(stages) * BatchSize * int64(unsafe.Sizeof(window.Window{}))
	probTail := int64(BatchSize) * int64(unsafe.Sizeof(tp.Tuple{})+
		unsafe.Sizeof((*lineage.Expr)(nil))+unsafe.Sizeof(float64(0)))
	return windows + probTail
}

// PipelineBytes is the amount a caller that builds a JoinStream of op
// itself owes the query's memory gauge; see operator.pipelineBytes.
func PipelineBytes(op tp.Op) int64 { return lookup(op).pipelineBytes() }

// JoinStream returns the pipelined result stream of the TP join `op` and
// the output attribute names. The input relations must satisfy the
// sequenced-TP constraint (see Relation.ValidateSequenced); output tuple
// probabilities are exact. Windows move through the pipeline in batches
// of at most BatchSize (see hopSize).
func JoinStream(op tp.Op, r, s *tp.Relation, theta tp.EquiTheta) (TupleIterator, []string) {
	o := lookup(op)
	return o.stream(r, s, theta, tp.MergeProbs(r, s), nil), o.attrs(r, s)
}

// JoinStreamInstrumented is JoinStream with per-stage accounting: every
// window-pipeline stage is wrapped in a counting iterator and the returned
// JoinInstr exposes windows/batches per stage (EXPLAIN ANALYZE reads it
// after draining the stream). The counting wrappers only exist on this
// path; plain JoinStream stays allocation- and indirection-free.
func JoinStreamInstrumented(op tp.Op, r, s *tp.Relation, theta tp.EquiTheta) (TupleIterator, []string, *JoinInstr) {
	o, instr := lookup(op), &JoinInstr{}
	return o.stream(r, s, theta, tp.MergeProbs(r, s), instr), o.attrs(r, s), instr
}

func (o operator) attrs(r, s *tp.Relation) []string {
	if o.rSchema {
		return slices.Clone(r.Attrs)
	}
	return slices.Concat(r.Attrs, s.Attrs)
}

// stream assembles o's window pipelines over (r, s, θ) under the tuple
// tail. probs is the merged base-event probability map, passed in so
// callers that evaluate many partitioned joins over the same database
// (ParallelJoin) amortize the merge. A non-nil instr interposes counting
// wrappers between the pipeline stages (EXPLAIN ANALYZE).
func (o operator) stream(r, s *tp.Relation, theta tp.EquiTheta, probs prob.Probs, instr *JoinInstr) *joinStream {
	js := &joinStream{
		op: o, pipes: make([]pipeline, len(o.phases)), hop: hopSize(r, s),
		bev: prob.NewBatchEvaluator(probs), instr: instr,
	}
	for i, ph := range o.phases {
		// suffix distinguishes the second phase of a full outer join.
		suffix := ""
		if i > 0 {
			suffix = "/mirror"
		}
		pr, ps, th := r, s, theta
		if ph.mirror {
			pr, ps, th = s, r, tp.Swap(theta)
		}
		it := instr.stage("overlap", suffix, OverlapJoin(pr, ps, th))
		if ph.sweeps > 0 {
			it = instr.stage("lawau", suffix, LAWAU(it))
		}
		if ph.sweeps > 1 {
			it = instr.stage("lawan", suffix, LAWAN(it))
		}
		js.pipes[i] = pipeline{phase: ph, it: it, nullArity: ps.Arity()}
	}
	return js
}

// Join computes the TP join r op s under θ, materializing the stream of
// JoinStream into a new relation:
//
//   - tp.OpInner, r ⋈Tp s: output tuples for the overlapping windows only;
//   - tp.OpAnti, r ▷Tp s: at each time point the probability that the r
//     tuple matches none of the valid s tuples. The output schema is r's;
//   - tp.OpLeft, r ⟕Tp s: pairings plus, at each time point, the
//     probability that the r tuple matches no valid s tuple;
//   - tp.OpRight, r ⟖Tp s: the window pipeline runs with the inputs
//     swapped and the output facts are mirrored back into (r, s) order;
//   - tp.OpFull, r ⟗Tp s: the overlapping windows once, plus the
//     unmatched and negating windows of both directions.
//
// Every other op panics.
func Join(op tp.Op, r, s *tp.Relation, theta tp.EquiTheta) *tp.Relation {
	out, _ := JoinContext(context.Background(), op, r, s, theta)
	return out
}

// JoinContext is Join under a query context; see operator.drain.
func JoinContext(ctx context.Context, op tp.Op, r, s *tp.Relation, theta tp.EquiTheta) (*tp.Relation, error) {
	return lookup(op).drain(ctx, r, s, theta, tp.MergeProbs(r, s), nil)
}

// Union computes r ∪Tp s under the full-fact equality theta of two
// union-compatible relations: forward phase first, then s's unmatched
// windows.
func Union(ctx context.Context, r, s *tp.Relation, theta tp.EquiTheta) (*tp.Relation, error) {
	return unionOp.drain(ctx, r, s, theta, tp.MergeProbs(r, s), nil)
}

// Intersect computes r ∩Tp s under the full-fact equality theta of two
// union-compatible relations.
func Intersect(ctx context.Context, r, s *tp.Relation, theta tp.EquiTheta) (*tp.Relation, error) {
	return intersectOp.drain(ctx, r, s, theta, tp.MergeProbs(r, s), nil)
}

// drain materializes o's stream into a relation, observing ctx every
// cancelCheck tuples (trivial for the Background context, so the
// uncancellable callers pay nothing measurable). It is the single drain
// loop shared by the sequential joins, the set operations and the PNJ
// partition workers; a non-nil st additionally accounts the produced
// tuples. A memory budget on ctx (mem.WithGauge) is charged for the
// pipeline buffers up front and for the materialized tuples at
// every checkpoint — the PNJ partition workers all charge the one
// per-query gauge, so the whole parallel join shares one budget.
func (o operator) drain(ctx context.Context, r, s *tp.Relation, theta tp.EquiTheta, probs prob.Probs, st *ParallelStats) (*tp.Relation, error) {
	gauge := mem.FromContext(ctx)
	if err := gauge.Charge(o.pipelineBytes()); err != nil {
		return nil, err
	}
	it := o.stream(r, s, theta, probs, nil)
	out := &tp.Relation{
		Name:  fmt.Sprintf("%s_%s_%s", r.Name, o.tag, s.Name),
		Attrs: o.attrs(r, s),
		Probs: probs,
	}
	perCheck := cancelCheck * mem.TupleBytes(len(out.Attrs))
	for n := 0; ; n++ {
		if n%cancelCheck == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if n > 0 {
				if err := gauge.Charge(perCheck); err != nil {
					return nil, err
				}
			}
		}
		t, ok := it.Next()
		if !ok {
			break
		}
		out.Tuples = append(out.Tuples, t)
	}
	if st != nil {
		st.Tuples.Add(int64(out.Len()))
	}
	return out, nil
}

// pipeline is a phase assembled over its inputs.
type pipeline struct {
	phase
	it        Iterator
	nullArity int // arity of the NULL-extended side
}

// hopSize is the window count of the tail's transfer buffer over (r, s),
// and through sweepIO of every hop upstream of it: BatchSize, or fewer
// when no stage can emit that many windows. An r tuple with k matching s
// tuples yields at most 4k windows at any stage (k overlapping, k+1 gaps,
// 2k−1 negating) and one when k = 0, so 4·|r|·|s| + |r| + |s| bounds every
// phase, the mirrored one included. A stream never waits on a larger hop
// than it can fill, so a join over a handful of tuples does not allocate
// BatchSize-window buffers, and no stage returns in more batches than a
// BatchSize hop would (the EXPLAIN ANALYZE batch counts).
func hopSize(r, s *tp.Relation) int {
	nr, ns := len(r.Tuples), len(s.Tuples)
	if nr >= BatchSize || ns >= BatchSize {
		return BatchSize
	}
	return min(BatchSize, 4*nr*ns+nr+ns+1)
}

// joinStream converts window streams into output tuples lazily: windows
// are pulled from each phase's pipeline through a hop-window buffer the
// stream allocates on its first batch, and probabilities are evaluated in
// BatchSize batches through prob.BatchEvaluator (one memo across the
// join).
type joinStream struct {
	op    operator
	pipes []pipeline
	cur   int
	bev   *prob.BatchEvaluator
	instr *JoinInstr // nil unless EXPLAIN ANALYZE instrumented

	hop          int // window transfer buffer length; see hopSize
	buf          []window.Window
	bufPos, bufN int
	// The probability tail: tuples of the current batch with their
	// lineages collected, awaiting one EvalBatch call. Allocated on the
	// first batch (pipelineBytes charges them up front).
	tbuf     []tp.Tuple
	lams     []*lineage.Expr
	ps       []float64
	tpos, tn int
}

func (j *joinStream) Next() (tp.Tuple, bool) {
	for {
		if j.tpos < j.tn {
			t := j.tbuf[j.tpos]
			j.tpos++
			return t, true
		}
		if !j.fillBatch() {
			return tp.Tuple{}, false
		}
	}
}

// fillBatch forms up to BatchSize output tuples from the window stream —
// fact and lineage only — then evaluates all their probabilities in one
// EvalBatch call. Deferring the probability to the batch boundary is what
// turns a per-tuple tail into batched work over the shared memo.
func (j *joinStream) fillBatch() bool {
	if j.tbuf == nil {
		j.tbuf = make([]tp.Tuple, BatchSize)
		j.lams = make([]*lineage.Expr, BatchSize)
		j.ps = make([]float64, BatchSize)
	}
	j.tpos, j.tn = 0, 0
	for j.cur < len(j.pipes) && j.tn < BatchSize {
		if j.bufPos == j.bufN {
			if j.buf == nil {
				j.buf = make([]window.Window, j.hop)
			}
			j.bufN = j.pipes[j.cur].it.NextBatch(j.buf)
			j.bufPos = 0
			if j.bufN == 0 {
				j.cur++
				continue
			}
		}
		ph := &j.pipes[j.cur]
		for j.bufPos < j.bufN && j.tn < BatchSize {
			w := &j.buf[j.bufPos]
			j.bufPos++
			if class := w.Class(); ph.keep&(1<<class) != 0 {
				t := j.tuple(ph, w, class)
				j.tbuf[j.tn] = t
				j.lams[j.tn] = t.Lineage
				j.tn++
			}
		}
	}
	if j.tn == 0 {
		j.buf = nil   // drop the window buffer past end of stream
		clear(j.tbuf) // and the tail's fact/lineage references
		clear(j.lams)
		return false
	}
	j.bev.EvalBatch(j.lams[:j.tn], j.ps)
	for i := 0; i < j.tn; i++ {
		j.tbuf[i].Prob = j.ps[i]
	}
	if j.instr != nil {
		j.instr.ProbBatches = j.bev.Batches()
		j.instr.MemoHits = j.bev.MemoHits()
		j.instr.ShannonSteps = j.bev.ShannonSteps()
	}
	return true
}

// tuple forms the output tuple of a kept window w of pipeline ph — fact,
// interval and the lineage concatenation of its class: λr ∧ λs (∨ for the
// union) for overlapping, λr for unmatched and andNot(λr,λs) = λr ∧ ¬λs
// for negating windows. The probability is filled in per batch.
func (j *joinStream) tuple(ph *pipeline, w *window.Window, class window.Class) tp.Tuple {
	f, lam := w.Fr, w.Lr
	switch {
	case class == window.Negating:
		lam = lineage.AndNot(w.Lr, w.Ls)
	case class == window.Overlapping && j.op.or:
		lam = lineage.Or(w.Lr, w.Ls)
	case class == window.Overlapping:
		lam = lineage.And(w.Lr, w.Ls)
	}
	if !j.op.rSchema {
		other := w.Fs
		if class != window.Overlapping {
			other = tp.Nulls(ph.nullArity)
		}
		if ph.mirror {
			f = other.Concat(w.Fr)
		} else {
			f = w.Fr.Concat(other)
		}
	}
	return tp.Tuple{Fact: f, Lineage: lam, T: w.T}
}

// WUO materializes the overlapping and unmatched windows of r with respect
// to s (the quantity measured in the paper's Fig. 5).
func WUO(r, s *tp.Relation, theta tp.EquiTheta) []window.Window {
	return Drain(LAWAU(OverlapJoin(r, s, theta)))
}

// WUON materializes all three window sets (the quantity measured in the
// paper's Fig. 6 as NJ-WUON).
func WUON(r, s *tp.Relation, theta tp.EquiTheta) []window.Window {
	return Drain(LAWAN(LAWAU(OverlapJoin(r, s, theta))))
}
