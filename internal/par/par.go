// Package par is the partitioned-parallel executor behind
// core.ParallelJoin (PNJ) and align.ParallelJoin (PTA): Join resolves the
// worker count, hash-partitions both inputs on the join key, runs the
// caller's per-partition join on a bounded worker pool with the
// cancellation, error and panic semantics blocking query operators need,
// and concatenates the partition results. It sits below both executor
// packages so the scaffold and its subtle concurrency code exist exactly
// once.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"tpjoin/internal/fault"
	"tpjoin/internal/tp"
)

// MaxWorkers bounds the goroutine and partition count of the partitioned
// executors regardless of the caller's request; plan.MaxJoinWorkers
// applies the same cap at SET time so rejected values never reach an
// executor.
const MaxWorkers = 1024

// overPartition is how many partitions each worker gets: more partitions
// than workers smooths key skew, since a worker that drew a light
// partition picks up the next one.
const overPartition = 4

// Workers resolves a requested worker count (the join_workers setting)
// to the effective one: <= 0 means one per CPU, and MaxWorkers caps it.
// The cost model prices the parallel strategies with the same resolution
// the executors run under.
func Workers(requested int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return min(requested, MaxWorkers)
}

// Join evaluates an equi-θ join partition-parallel: both inputs are
// hash-partitioned on the join key into Workers(workers) × overPartition
// partitions, one(ctx, rp, sp) joins one partition's pair on the worker
// pool (see Run for cancellation, error and panic semantics), and the
// partition results concatenate. Facts with different keys never match,
// so every output tuple stems from exactly one partition; output order is
// deterministic — partition-major, one's order within a partition —
// regardless of scheduling. Name, schema and base-event probabilities are
// taken from the first partition's result (every partition carries its
// inputs' full Probs, so they all agree). The effective worker and
// partition counts are returned for EXPLAIN ANALYZE, also when the join
// fails.
func Join(ctx context.Context, r, s *tp.Relation, eq tp.EquiTheta, workers int,
	one func(ctx context.Context, rp, sp *tp.Relation) (*tp.Relation, error)) (out *tp.Relation, effWorkers, parts int, err error) {
	effWorkers = Workers(workers)
	parts = effWorkers * overPartition
	rParts := PartitionByKey(r, eq.RCols, parts)
	sParts := PartitionByKey(s, eq.SCols, parts)

	results := make([]*tp.Relation, parts)
	err = Run(ctx, parts, effWorkers, func(p int) error {
		res, err := one(ctx, rParts[p], sParts[p])
		results[p] = res
		return err
	})
	if err != nil {
		return nil, effWorkers, parts, err
	}

	n := 0
	for _, res := range results {
		n += res.Len()
	}
	out = &tp.Relation{
		Name:   results[0].Name,
		Attrs:  results[0].Attrs,
		Probs:  results[0].Probs,
		Tuples: make([]tp.Tuple, 0, n),
	}
	for _, res := range results {
		out.Tuples = append(out.Tuples, res.Tuples...)
	}
	return out, effWorkers, parts, nil
}

// Run executes run(p) for every partition index in [0, parts) on a
// worker pool of the given size:
//
//   - cancellation is observed between partitions — once ctx is done (or
//     any partition failed) no further partition starts, and every
//     started worker is joined before Run returns, so no goroutine
//     outlives the call;
//   - the first worker error is captured and returned (ctx.Err() takes
//     precedence when the context is done, so cancelled runs surface the
//     context error whatever a worker reported);
//   - a worker panic (e.g. the documented evaluator panics on
//     conflicting base-event probabilities) is captured and re-raised on
//     the *calling* goroutine after all workers joined — the query
//     surfaces' panic-to-error containment recovers on the query
//     goroutine, so sequential and parallel execution fail identically
//     instead of a worker panic killing the process.
func Run(ctx context.Context, parts, workers int, run func(p int) error) error {
	var wg sync.WaitGroup
	var aborted atomic.Bool
	var firstErr atomic.Pointer[error]
	var firstPanic atomic.Pointer[any]
	sem := make(chan struct{}, workers)
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, &r)
					aborted.Store(true)
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			if aborted.Load() {
				return
			}
			if ctx.Err() != nil {
				aborted.Store(true)
				return
			}
			// Chaos hook: an armed "par.worker" failpoint fails this
			// partition like a worker error would (or panics, exercising
			// the re-raise path below).
			if err := fault.Inject("par.worker"); err != nil {
				firstErr.CompareAndSwap(nil, &err)
				aborted.Store(true)
				return
			}
			if err := run(p); err != nil {
				firstErr.CompareAndSwap(nil, &err)
				aborted.Store(true)
			}
		}(p)
	}
	wg.Wait()
	if r := firstPanic.Load(); r != nil {
		panic(*r)
	}
	if aborted.Load() {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A worker failed for a non-context reason; surface its error
		// rather than reporting success.
		return *firstErr.Load()
	}
	return nil
}

// PartitionByKey splits rel into parts sub-relations by the hash of the
// join-key columns (interned key hashing, so facts with equal keys land
// together). Tuples whose key contains NULL match nothing; they still
// must flow through a join (outer/anti semantics keep them), so they are
// assigned round-robin by tuple index — deterministically, so repeated
// partitionings of one relation agree. The partitions are marked
// Transient (per-call temporaries outside the derived-structure caches).
func PartitionByKey(rel *tp.Relation, cols []int, parts int) []*tp.Relation {
	out := make([]*tp.Relation, parts)
	for i := range out {
		out[i] = &tp.Relation{Name: rel.Name, Attrs: rel.Attrs, Probs: rel.Probs, Transient: true}
	}
	eq := tp.EquiTheta{RCols: cols, SCols: cols}
	for i := range rel.Tuples {
		t := &rel.Tuples[i]
		var p int
		if h, ok := eq.RKeyHash(t.Fact); ok {
			p = int(h % uint64(parts))
		} else {
			p = i % parts
		}
		out[p].Tuples = append(out[p].Tuples, *t)
	}
	return out
}
