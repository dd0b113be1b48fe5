package engine

// The cancellation contract: every loop that can run long under an
// admitted query observes the query context often enough that a timeout,
// client disconnect or server drain stops it within one checkpoint
// interval. TestCancellationCheckpoints proves it by counting, not by
// timing: countdownCtx counts the Err calls of a run, and flips to
// context.Canceled at a chosen call.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/par"
	"tpjoin/internal/tp"
)

// The checkpoint cadences of the execution packages. All but
// cancelCheckInterval are unexported where they live, so they are
// mirrored here; raising one there fails the density check below until
// its mirror follows.
const (
	coreCancelCheck   = 256  // core.cancelCheck: tuples per check in core's drain and ProjectLineage's grouping
	alignCancelCheck  = 64   // align.alignCancelCheck: outer tuples per check in an alignment drain
	drainCancelWork   = 4096 // align.drainCancelWork: work per check in an alignment index build or drain
	projectCancelWork = 4096 // core.projectCancelWork: entries scanned per check inside one DISTINCT group
	probBatchSize     = 256  // align.probBatchSize: rows per check in TA's probability tail
	overPartition     = 4    // par.overPartition: partitions per parallel worker
)

// maxCallsAfterCancel is how many Err calls may follow the one that first
// reported the cancellation in a partitioned-parallel run: the other
// worker's next checkpoint and par.Run's final check. A sequential run
// makes none. Any more means a checkpoint saw the error and kept going.
const maxCallsAfterCancel = 2

// sweepWorkers is the worker count of the PNJ and PTA rows.
const sweepWorkers = 2

// sweepShape is one input pair of the sweep. Both relations are
// (Key, ID) with distinct facts; every join is the equi join on Key.
type sweepShape struct {
	name string
	r, s *tp.Relation
}

// keyedRelation builds a (Key, ID) relation of n tuples; ID is the tuple
// index, so facts are distinct whatever the intervals.
func keyedRelation(name string, n int, key func(i int) string, start func(i int) int, length int) *tp.Relation {
	rel := tp.NewRelation(name, "Key", "ID")
	for i := range n {
		rel.Append(tp.Strings(key(i), fmt.Sprint(i)), interval.New(interval.Time(start(i)), interval.Time(start(i)+length)), 0.5)
	}
	return rel
}

func sweepShapes() []sweepShape {
	const n = 192
	at := func(t int) func(int) int { return func(int) int { return t } }
	return []sweepShape{
		// Outer tuples no inner tuple matches: the per-tuple cadences.
		{"no match",
			keyedRelation("r", 640, func(i int) string { return fmt.Sprint("r", i) }, at(0), 8),
			keyedRelation("s", 640, func(i int) string { return fmt.Sprint("s", i) }, at(0), 8)},
		// One key, every interval overlapping every other: r is
		// staggered, so its index and its DISTINCT group are quadratic;
		// s sits inside all of r, so each s tuple is one fragment
		// covered by all of r, and each r tuple splits around it.
		{"one key",
			keyedRelation("r", n, func(int) string { return "k" }, func(i int) int { return i }, 2*n),
			keyedRelation("s", n/3, func(int) string { return "k" }, at(3*n/2), 1)},
		// Few keys, identical intervals: every r tuple pairs with every s
		// tuple of its key, and s repeats r's facts for the set operations.
		{"many rows",
			keyedRelation("r", 192, func(i int) string { return fmt.Sprint("k", i%4) }, at(0), 64),
			keyedRelation("s", 192, func(i int) string { return fmt.Sprint("k", i%4) }, at(0), 64)},
		// Many small keys: every partition of a two-worker join is busy
		// with a few rows.
		{"partitions",
			keyedRelation("r", 192, func(i int) string { return fmt.Sprint("k", i/2) }, func(i int) int { return 4 * (i % 2) }, 4),
			keyedRelation("s", 192, func(i int) string { return fmt.Sprint("k", i/2) }, func(i int) int { return 2 + 4*(i%2) }, 4)},
	}
}

// sweepOperator is one row of the sweep: how to build the operator over a
// shape, and the fewest checkpoints its cadences allow for that shape and
// the rows it produced. A stream runs under RunContext and is counted
// whole; a blocking operator is counted in Open, where it does its work.
type sweepOperator struct {
	name     string
	stream   bool
	parallel bool
	build    func(sh sweepShape) Operator
	checks   func(sh sweepShape, rows int) int
}

func sweepOperators() []sweepOperator {
	var ops []sweepOperator
	joinOps := []tp.Op{tp.OpInner, tp.OpLeft, tp.OpRight, tp.OpFull, tp.OpAnti}
	type strategyRow struct {
		name   string
		s      Strategy
		cfg    align.Config
		checks func(op tp.Op, sh sweepShape, rows int) int
	}
	ta := func(nestedLoop bool) func(tp.Op, sweepShape, int) int {
		return func(op tp.Op, sh sweepShape, rows int) int {
			return alignChecks(op, sh.r, sh.s, nestedLoop) + ceilDiv(rows, probBatchSize)
		}
	}
	joins := []strategyRow{
		{"NJ", StrategyNJ, align.Config{}, func(_ tp.Op, _ sweepShape, rows int) int {
			return drainChecks(rows)
		}},
		{"TA", StrategyTA, align.Config{}, ta(false)},
		{"TA nested loop", StrategyTA, align.Config{NestedLoop: true}, ta(true)},
		{"PNJ", StrategyPNJ, align.Config{}, func(_ tp.Op, _ sweepShape, rows int) int {
			// Per partition: par.Run's check before it starts, then
			// core's drain (one check before the first row and one per
			// coreCancelCheck rows, of which the p partitions' remainders
			// lose at most p-1 against the total).
			p := par.Workers(sweepWorkers) * overPartition
			return 2*p + max(0, rows/coreCancelCheck-(p-1))
		}},
		{"PTA", StrategyPTA, align.Config{}, func(op tp.Op, sh sweepShape, rows int) int {
			// Per partition: par.Run's check, then TA's alignment
			// cadences over the partition's inputs; the partitions'
			// probability batches are at least the whole result's.
			p := par.Workers(sweepWorkers) * overPartition
			rp := par.PartitionByKey(sh.r, []int{0}, p)
			sp := par.PartitionByKey(sh.s, []int{0}, p)
			n := ceilDiv(rows, probBatchSize)
			for i := range p {
				n += 1 + alignChecks(op, rp[i], sp[i], false)
			}
			return n
		}},
	}
	for _, st := range joins {
		for _, op := range joinOps {
			ops = append(ops, sweepOperator{
				name:     fmt.Sprintf("TPJoin/%s/%v", st.name, op),
				stream:   st.s == StrategyNJ,
				parallel: st.s.Parallel(),
				build: func(sh sweepShape) Operator {
					j := NewTPJoin(op, NewScan(sh.r), NewScan(sh.s), tp.Equi(0, 0), st.s, st.cfg)
					j.SetWorkers(sweepWorkers)
					return j
				},
				checks: func(sh sweepShape, rows int) int { return st.checks(op, sh, rows) },
			})
		}
	}
	for _, kind := range []SetOpKind{SetUnion, SetIntersect, SetExcept} {
		ops = append(ops, sweepOperator{
			name:   "TPSetOp/" + kind.String(),
			build:  func(sh sweepShape) Operator { return NewTPSetOp(kind, NewScan(sh.r), NewScan(sh.s)) },
			checks: func(_ sweepShape, rows int) int { return rows/coreCancelCheck + 1 },
		})
	}
	return append(ops,
		sweepOperator{
			name: "LineageDistinct",
			build: func(sh sweepShape) Operator {
				d, err := NewLineageDistinct(NewScan(sh.r), []int{0}, []string{"Key"})
				if err != nil {
					panic(err)
				}
				return d
			},
			checks: distinctChecks,
		},
		sweepOperator{
			name:   "Sort",
			build:  func(sh sweepShape) Operator { return NewSort(NewScan(sh.r), byProbDesc) },
			checks: func(sh sweepShape, _ int) int { return sh.r.Len()/cancelCheckInterval + 1 },
		},
		sweepOperator{
			name:   "RunContext",
			stream: true,
			build:  func(sh sweepShape) Operator { return NewScan(sh.r) },
			checks: func(_ sweepShape, rows int) int { return drainChecks(rows) },
		},
	)
}

// TestCancellationCheckpoints sweeps every operator that loops over its
// input — each join operator under each strategy, the set operations,
// DISTINCT, ORDER BY and RunContext's drain — over four input shapes, and
// asserts two properties of each run:
//
//   - every checkpoint cancels: when the context flips at the first,
//     second, third or last Err call of the run, or at any of a stride
//     through the others, the run returns context.Canceled and calls Err
//     no further (up to maxCallsAfterCancel more in a parallel run);
//   - checkpoints are dense: an uncancelled run calls Err at least as
//     often as the work its input implies, divided by the interval of
//     the cadence that governs that work, summed over the operator's
//     cadences.
//
// Removing any one checkpoint breaks one of the two somewhere in the
// sweep: either a cancellation at that call is never seen, or the run
// calls Err less often than its cadences promise.
func TestCancellationCheckpoints(t *testing.T) {
	shapes := sweepShapes()
	for _, op := range sweepOperators() {
		for _, sh := range shapes {
			t.Run(op.name+"/"+sh.name, func(t *testing.T) {
				ctx := neverCancel()
				rows, err := op.run(ctx, sh)
				if err != nil {
					t.Fatalf("uncancelled run: %v", err)
				}
				calls := ctx.calls.Load()
				if want := op.checks(sh, rows); calls < int64(want) {
					t.Errorf("%d checkpoints for %d rows, want ≥ %d", calls, rows, want)
				}
				if calls == 0 {
					t.Fatal("no checkpoint")
				}
				maxAfter := int64(0)
				if op.parallel {
					maxAfter = maxCallsAfterCancel
				}
				for _, k := range flipPoints(calls) {
					ctx := cancelAfterChecks(k)
					if _, err := op.run(ctx, sh); !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled at checkpoint %d of %d: err = %v, want context.Canceled", k, calls, err)
					}
					if after := ctx.calls.Load() - (k + 1); after > maxAfter {
						t.Errorf("cancelled at checkpoint %d of %d: %d further checkpoints ran, want ≤ %d",
							k, calls, after, maxAfter)
					}
				}
			})
		}
	}
}

// run executes the operator over sh under ctx and returns its row count.
// A panic (par.Run re-raises a worker's on the calling goroutine) is an
// error of the run.
func (o sweepOperator) run(ctx context.Context, sh sweepShape) (rows int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	op := o.build(sh)
	if o.stream {
		rel, err := RunContext(ctx, op, "out")
		if err != nil {
			return 0, err
		}
		return rel.Len(), nil
	}
	BindContext(ctx, op)
	defer op.Close()
	if err := op.Open(); err != nil {
		return 0, err
	}
	for {
		_, ok, err := op.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows++
	}
}

// flipPoints returns the Err calls, out of n, to cancel at: the first
// three, the last, and a stride through the rest.
func flipPoints(n int64) []int64 {
	ks := []int64{0, 1, 2, n - 1}
	for i := int64(1); i < 4; i++ {
		ks = append(ks, i*n/4)
	}
	slices.Sort(ks)
	return slices.Compact(slices.DeleteFunc(ks, func(k int64) bool { return k < 0 || k >= n }))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// drainChecks is RunContext's cadence: one check before Open, then one
// every cancelCheckInterval pulls of the drain, the first before the
// first pull and the last at the end of the stream.
func drainChecks(rows int) int { return 1 + rows/cancelCheckInterval + 1 }

// workCadence is the fewest checks a work-counted checkpoint makes: it
// fires when the work since the last check reaches interval, and a single
// step of at most maxStep can overshoot, so each check covers less than
// interval + maxStep units.
type workCadence struct{ total, maxStep int }

func (w *workCadence) add(step int) {
	w.total += step
	w.maxStep = max(w.maxStep, step)
}

func (w workCadence) checks(interval int) int {
	if w.total == 0 {
		return 0
	}
	return w.total / (interval + w.maxStep - 1)
}

// distinctChecks is ProjectLineage's cadences over r projected on Key: a
// check every coreCancelCheck tuples while grouping, one per group, one
// per projectCancelWork entries scanned while splitting a group (every
// elementary interval scans all the group's entries), and one per
// probability batch of core.BatchSize rows plus the final one.
func distinctChecks(sh sweepShape, rows int) int {
	groups := intervalsByKey(sh.r)
	var split workCadence
	for _, ivs := range groups {
		for range elementaryCount(ivs) {
			split.add(len(ivs) + 1)
		}
	}
	return ceilDiv(sh.r.Len(), coreCancelCheck) + len(groups) +
		split.checks(projectCancelWork) + rows/core.BatchSize + 1
}

// elementaryCount is the number of elementary intervals of ivs: pieces
// between consecutive distinct endpoints that some interval covers.
func elementaryCount(ivs []interval.Interval) int {
	pts, n := endpoints(ivs), 0
	for i := 0; i+1 < len(pts); i++ {
		piece := interval.New(pts[i], pts[i+1])
		if slices.ContainsFunc(ivs, func(iv interval.Interval) bool { return iv.Overlaps(piece) }) {
			n++
		}
	}
	return n
}

// alignChecks is the alignment part of a TA join's cadences, before its
// probability tail. Every pass — the operator's one, or two for the full
// outer join, the second mirrored — builds an index over its inner side
// (the hash plan only; one check per drainCancelWork units, a tuple's
// unit being the index segments it spans plus one) and drains the outer
// side against it: one check every alignCancelCheck outer tuples, and one
// per drainCancelWork units of fragment work, a fragment's unit being
// its cover plus one (plus the candidates it rescans, under the nested
// loop). The hash plan drains every pass twice, a counting drain sizing
// the row buffer first.
func alignChecks(op tp.Op, r, s *tp.Relation, nestedLoop bool) int {
	type pass struct{ outer, inner *tp.Relation }
	passes := []pass{{r, s}}
	switch op {
	case tp.OpRight:
		passes = []pass{{s, r}}
	case tp.OpFull:
		passes = []pass{{r, s}, {s, r}}
	}
	drains := 2
	if nestedLoop {
		drains = 1
	}
	n := 0
	for _, p := range passes {
		byKey := intervalsByKey(p.inner)
		var build, frags workCadence
		for _, ivs := range byKey {
			bounds := endpoints(ivs)
			for _, iv := range ivs {
				build.add(countIn(bounds, iv.Start, iv.End) + 1)
			}
		}
		for _, t := range p.outer.Tuples {
			group, ok := byKey[t.Fact[0].String()]
			if !ok && !nestedLoop {
				continue // no index group: no fragment work
			}
			pts := []interval.Time{t.T.Start, t.T.End}
			for _, b := range endpoints(group) {
				if b > t.T.Start && b < t.T.End {
					pts = append(pts, b)
				}
			}
			slices.Sort(pts)
			pts = slices.Compact(pts)
			for i := 0; i+1 < len(pts); i++ {
				frag := interval.New(pts[i], pts[i+1])
				step := 1
				for _, iv := range group {
					if iv.ContainsInterval(frag) {
						step++
					}
				}
				if nestedLoop {
					step += p.inner.Len()
				}
				frags.add(step)
			}
		}
		if !nestedLoop {
			n += build.checks(drainCancelWork)
		}
		n += drains * (ceilDiv(p.outer.Len(), alignCancelCheck) + frags.checks(drainCancelWork))
	}
	return n
}

// intervalsByKey groups rel's tuple intervals by their Key.
func intervalsByKey(rel *tp.Relation) map[string][]interval.Interval {
	byKey := map[string][]interval.Interval{}
	for _, t := range rel.Tuples {
		k := t.Fact[0].String()
		byKey[k] = append(byKey[k], t.T)
	}
	return byKey
}

// endpoints returns the sorted distinct endpoints of ivs.
func endpoints(ivs []interval.Interval) []interval.Time {
	var pts []interval.Time
	for _, iv := range ivs {
		pts = append(pts, iv.Start, iv.End)
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

// countIn counts the sorted bounds in [lo, hi).
func countIn(bounds []interval.Time, lo, hi interval.Time) int {
	a, _ := slices.BinarySearch(bounds, lo)
	b, _ := slices.BinarySearch(bounds, hi)
	return b - a
}
