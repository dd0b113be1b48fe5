package align

import (
	"context"
	"sync"

	"tpjoin/internal/par"
	"tpjoin/internal/tp"
)

// ParallelJoin evaluates a TA join with equi-θ by hash-partitioning both
// inputs on the join key and running the full alignment reduction (both
// conventional joins, both sub-queries of a negation join, and the
// duplicate-eliminating union) on every partition concurrently — the PNJ
// parallelism model (core.ParallelJoin) applied to the alignment
// baseline, on the same executor (par.Join). Facts with different keys
// never match, split or cover one another, and the union's duplicates
// (the unmatched fragments computed by both sub-queries) always stem from
// one outer tuple, so per-partition dedup equals global dedup and
// partition results simply concatenate. Output tuple order is
// deterministic (partition-major, union order within a partition) but
// differs from the sequential baseline's global union order.
func ParallelJoin(op tp.Op, r, s *tp.Relation, eq tp.EquiTheta, cfg Config, workers int) *tp.Relation {
	out, _ := ParallelJoinContext(context.Background(), op, r, s, eq, cfg, workers, nil)
	return out
}

// ParallelJoinContext is ParallelJoin under a query context: the
// partition workers observe ctx between partitions (par.Run) and inside
// the alignment drains (every alignCancelCheck outer tuples
// and every drainCancelWork units within one tuple's fragment drain), so
// a timeout or client disconnect aborts the materializing Open
// mid-alignment. On cancellation all workers are joined before
// returning, the result is nil and the error is ctx.Err(); a worker
// panic re-surfaces on the calling goroutine, where the query surfaces'
// panic-to-error containment catches it. A non-nil st records the
// effective worker and partition counts and aggregates the
// per-partition alignment counters (passes, fragments, pre-union rows)
// for EXPLAIN ANALYZE.
func ParallelJoinContext(ctx context.Context, op tp.Op, r, s *tp.Relation, eq tp.EquiTheta, cfg Config, workers int, st *Stats) (*tp.Relation, error) {
	var mu sync.Mutex // guards st's counters: every partition adds its own
	out, w, parts, err := par.Join(ctx, r, s, eq, workers,
		func(ctx context.Context, rp, sp *tp.Relation) (*tp.Relation, error) {
			if st == nil {
				return JoinContext(ctx, op, rp, sp, eq, cfg, nil)
			}
			var ps Stats
			res, err := JoinContext(ctx, op, rp, sp, eq, cfg, &ps)
			mu.Lock()
			defer mu.Unlock()
			st.AlignPasses += ps.AlignPasses
			st.Fragments += ps.Fragments
			st.Rows += ps.Rows
			st.DupAvoided += ps.DupAvoided
			st.ProbBatches += ps.ProbBatches
			st.MemoHits += ps.MemoHits
			st.ShannonSteps += ps.ShannonSteps
			return res, err
		})
	if st != nil {
		st.Workers, st.Partitions = int64(w), int64(parts)
	}
	return out, err
}
