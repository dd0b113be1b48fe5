package core

import (
	"context"
	"sync/atomic"

	"tpjoin/internal/par"
	"tpjoin/internal/tp"
)

// ParallelJoin evaluates a TP join with equi-θ by hash-partitioning both
// inputs on the join key and running the NJ pipeline on every partition
// concurrently. Facts with different keys never match, and all windows of
// one r tuple are confined to its partition, so partition results simply
// concatenate. Output tuple order is deterministic (partition-major,
// pipeline order within a partition) regardless of scheduling.
//
// This is the parallelism model a partitioned DBMS executor would apply
// to the paper's operators; the sweep algorithms themselves stay strictly
// sequential per partition, as their correctness depends on group order.
func ParallelJoin(op tp.Op, r, s *tp.Relation, eq tp.EquiTheta, workers int) *tp.Relation {
	out, _ := ParallelJoinContext(context.Background(), op, r, s, eq, workers, nil)
	return out
}

// ParallelJoinContext is ParallelJoin under a query context: the partition
// workers observe ctx between partitions and every cancelCheck tuples
// while draining one, so a timeout or client disconnect aborts the
// materializing Open mid-build instead of running every partition to
// completion. On cancellation all workers are joined before returning, so
// no partition goroutine outlives the call; the result is nil and the
// error is ctx.Err(). A non-nil st additionally accounts partitions and
// output tuples for EXPLAIN ANALYZE.
func ParallelJoinContext(ctx context.Context, op tp.Op, r, s *tp.Relation, eq tp.EquiTheta, workers int, st *ParallelStats) (*tp.Relation, error) {
	// Merge the base-event probabilities once; the map is only read by
	// the workers' evaluators, so sharing it across goroutines is safe.
	merged := tp.MergeProbs(r, s)
	o := lookup(op)
	out, w, parts, err := par.Join(ctx, r, s, eq, workers,
		func(ctx context.Context, rp, sp *tp.Relation) (*tp.Relation, error) {
			res, err := o.drain(ctx, rp, sp, eq, merged, st)
			if err == nil && st != nil {
				st.PartitionsDone.Add(1)
			}
			return res, err
		})
	if st != nil {
		st.Workers, st.Partitions = int64(w), int64(parts)
	}
	return out, err
}

// cancelCheck is how many tuples a partition worker drains between
// context checks: frequent enough that cancellation bites within
// microseconds, rare enough that the (atomic-load) check never shows in
// profiles.
const cancelCheck = 256

// ParallelStats accounts one ParallelJoin run for EXPLAIN ANALYZE. The
// fields are written by the partition workers through atomics; read them
// only after the join returned.
type ParallelStats struct {
	// Workers is the effective worker count after defaulting and capping.
	Workers int64
	// Partitions is the total partition count (workers × 4).
	Partitions int64
	// PartitionsDone is how many partitions completed; under an aborted
	// run it shows how far the join got before cancellation.
	PartitionsDone atomic.Int64
	// Tuples is the number of output tuples produced across partitions
	// (counted even for partitions whose results were discarded by a
	// later abort).
	Tuples atomic.Int64
}
