package engine

import (
	"context"
	"fmt"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/mem"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// Strategy selects the physical implementation of a TP join.
type Strategy uint8

// The available join strategies.
const (
	// StrategyNJ is the paper's approach: pipelined lineage-aware window
	// computation (OverlapJoin → LAWAU → LAWAN).
	StrategyNJ Strategy = iota
	// StrategyTA is the Temporal Alignment baseline: blocking, with tuple
	// replication and a duplicate-eliminating union.
	StrategyTA
	// StrategyPNJ is the partitioned-parallel NJ executor: both inputs are
	// hash-partitioned on the equi key and the NJ pipeline runs on every
	// partition concurrently (core.ParallelJoin). Output order is
	// deterministic (partition-major) but differs from StrategyNJ's. It
	// requires an equi-join condition and materializes at Open.
	StrategyPNJ
	// StrategyPTA is the partitioned-parallel TA executor: the PNJ
	// parallelism model applied to the alignment baseline
	// (align.ParallelJoin). Like PNJ it requires an equi-join condition,
	// materializes at Open and produces deterministic partition-major
	// output order.
	StrategyPTA

	// NumStrategies is the number of defined strategies; per-strategy
	// arrays (costs, \metrics counters) are sized by it.
	NumStrategies = iota
)

// strategies is the one description of every strategy: its name, the
// sequential family it parallelizes (itself for NJ and TA) and whether it
// is a partitioned-parallel executor.
var strategies = [...]struct {
	name     string
	family   Strategy
	parallel bool
}{
	StrategyNJ:  {"NJ", StrategyNJ, false},
	StrategyTA:  {"TA", StrategyTA, false},
	StrategyPNJ: {"PNJ", StrategyNJ, true},
	StrategyPTA: {"PTA", StrategyTA, true},
}

// A row missing from (or extra in) the table overflows one of these
// unsigned constants and fails the build.
const _, _ = uint(NumStrategies - len(strategies)), uint(len(strategies) - NumStrategies)

func (s Strategy) String() string {
	if s >= NumStrategies {
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
	return strategies[s].name
}

// Family returns the sequential strategy s runs per partition: NJ for NJ
// and PNJ, TA for TA and PTA.
func (s Strategy) Family() Strategy { return strategies[s].family }

// Parallel reports whether s is a partitioned-parallel executor (PNJ, PTA).
func (s Strategy) Parallel() bool { return strategies[s].parallel }

// TPJoin is the executor node for temporal-probabilistic joins with
// negation. Under StrategyNJ the result streams tuple-by-tuple out of the
// window pipeline; under the blocking strategies (TA and the two
// partitioned-parallel executors PNJ/PTA) the result is materialized at
// Open and then scanned.
type TPJoin struct {
	blocking
	op       tp.Op
	left     Operator
	right    Operator
	theta    tp.Theta
	strategy Strategy
	taCfg    align.Config
	workers  int // PNJ worker count; 0 means GOMAXPROCS

	// instr enables strategy-level stage accounting (set by Instrument);
	// abort records the context error that interrupted a blocking Open,
	// for EXPLAIN ANALYZE's abort annotation.
	instr bool
	abort error

	njInstr  *core.JoinInstr     // NJ stage counters (instr only)
	taStats  *align.Stats        // TA alignment counters (instr only)
	pnjStats *core.ParallelStats // PNJ partition counters (instr only)

	// pick is the planner's cost-model record for this join (nil when the
	// planner attached none, e.g. for hand-built trees); the engine
	// carries it only so EXPLAIN can render the decision.
	pick *AutoPick

	stream core.TupleIterator // NJ; nil under the blocking strategies
	probs  prob.Probs
}

// StageStat is one strategy-specific ANALYZE detail counter of a TPJoin —
// a window-pipeline stage under NJ, an alignment counter under TA/PTA, a
// partition counter under PNJ/PTA. Batches is only meaningful for batched
// stages and is 0 otherwise.
type StageStat struct {
	Name    string
	Count   int64
	Batches int64
}

// NewTPJoin builds a TP join node over two children.
func NewTPJoin(op tp.Op, left, right Operator, theta tp.Theta, strategy Strategy, taCfg align.Config) *TPJoin {
	j := &TPJoin{
		op: op, left: left, right: right, theta: theta,
		strategy: strategy, taCfg: taCfg,
	}
	if op == tp.OpAnti {
		j.attrs = append([]string(nil), left.Attrs()...)
	} else {
		j.attrs = append(append([]string(nil), left.Attrs()...), right.Attrs()...)
	}
	return j
}

// AutoPick records the planner's cost-model view of one TP join for
// EXPLAIN: the model's estimated cost per physical strategy (indexed by
// Strategy, in model nanoseconds) and one summary line per input of the
// statistics the model consumed. Auto reports whether the cost-based
// picker chose the strategy (as opposed to a forced SET strategy).
type AutoPick struct {
	Auto   bool
	Costs  [NumStrategies]float64
	Inputs []string
}

// SetAutoPick attaches the planner's cost-model record; see AutoPick.
func (j *TPJoin) SetAutoPick(p *AutoPick) { j.pick = p }

// AutoPick returns the planner's cost-model record, or nil.
func (j *TPJoin) AutoPick() *AutoPick { return j.pick }

// SetWorkers sets the worker count of the partitioned-parallel strategies
// (PNJ, PTA; 0 = GOMAXPROCS). It has no effect on the other strategies.
func (j *TPJoin) SetWorkers(n int) { j.workers = n }

// Workers returns the configured parallel worker count.
func (j *TPJoin) Workers() int { return j.workers }

// AbortErr returns the context error that interrupted the last Open, or
// nil if it ran to completion. EXPLAIN ANALYZE reports it as the node's
// abort reason.
func (j *TPJoin) AbortErr() error { return j.abort }

func (j *TPJoin) Open() error {
	ctx := j.begin()
	j.stream = nil
	j.abort = nil
	j.njInstr, j.taStats, j.pnjStats = nil, nil, nil
	r, err := childRelation(ctx, j.left, "l")
	if err != nil {
		j.abort = ctx.Err()
		return err
	}
	s, err := childRelation(ctx, j.right, "r")
	if err != nil {
		j.abort = ctx.Err()
		return err
	}
	j.probs = tp.MergeProbs(r, s)
	var out *tp.Relation
	switch j.strategy {
	case StrategyNJ:
		// The NJ stream's batch buffers are the strategy's only allocation
		// beyond whatever buffers its rows downstream (drain charges
		// those); budget them up front at their largest size.
		if err := mem.FromContext(ctx).Charge(core.PipelineBytes(j.op)); err != nil {
			return err
		}
		if j.instr {
			j.stream, _, j.njInstr = core.JoinStreamInstrumented(j.op, r, s, j.theta)
		} else {
			j.stream, _ = core.JoinStream(j.op, r, s, j.theta)
		}
		return nil
	case StrategyTA:
		if j.instr {
			j.taStats = &align.Stats{}
		}
		out, err = align.JoinContext(ctx, j.op, r, s, j.theta, j.taCfg, j.taStats)
	case StrategyPNJ, StrategyPTA:
		eq, ok := j.theta.(tp.EquiTheta)
		if !ok {
			return fmt.Errorf("engine: %v strategy requires an equi-join condition (got %T)", j.strategy, j.theta)
		}
		if j.strategy == StrategyPNJ {
			if j.instr {
				j.pnjStats = &core.ParallelStats{}
			}
			out, err = core.ParallelJoinContext(ctx, j.op, r, s, eq, j.workers, j.pnjStats)
		} else {
			if j.instr {
				j.taStats = &align.Stats{}
			}
			out, err = align.ParallelJoinContext(ctx, j.op, r, s, eq, j.taCfg, j.workers, j.taStats)
		}
	default:
		return fmt.Errorf("engine: unknown join strategy %v", j.strategy)
	}
	if err != nil {
		j.abort = err
		return err
	}
	j.mat = out.Tuples
	return nil
}

// Stages returns the strategy-level ANALYZE detail counters of the last
// run: window-pipeline stages (windows/batches) plus probability batching
// (prob-batches/memo-hits/shannon-steps) under NJ, alignment passes/fragments/pre-union
// rows plus the streaming union's dup-avoided and probability batching
// under TA (prefixed by workers/partitions under PTA),
// workers/partitions/tuples under PNJ. It returns nil when the join was
// not instrumented.
func (j *TPJoin) Stages() []StageStat {
	switch {
	case j.njInstr != nil:
		out := make([]StageStat, 0, len(j.njInstr.Stages)+3)
		for _, st := range j.njInstr.Stages {
			out = append(out, StageStat{Name: st.Name, Count: st.Windows, Batches: st.Batches})
		}
		return append(out,
			StageStat{Name: "prob-batches", Count: j.njInstr.ProbBatches},
			StageStat{Name: "memo-hits", Count: j.njInstr.MemoHits},
			StageStat{Name: "shannon-steps", Count: j.njInstr.ShannonSteps})
	case j.taStats != nil:
		out := make([]StageStat, 0, 9)
		if j.taStats.Workers > 0 {
			// The parallel executor (PTA) additionally reports its
			// partitioning; the alignment counters below then aggregate
			// over all partitions.
			out = append(out,
				StageStat{Name: "workers", Count: j.taStats.Workers},
				StageStat{Name: "partitions", Count: j.taStats.Partitions})
		}
		return append(out,
			StageStat{Name: "align-passes", Count: j.taStats.AlignPasses},
			StageStat{Name: "fragments", Count: j.taStats.Fragments},
			StageStat{Name: "pre-union rows", Count: j.taStats.Rows},
			StageStat{Name: "dup-avoided", Count: j.taStats.DupAvoided},
			StageStat{Name: "prob-batches", Count: j.taStats.ProbBatches},
			StageStat{Name: "memo-hits", Count: j.taStats.MemoHits},
			StageStat{Name: "shannon-steps", Count: j.taStats.ShannonSteps})
	case j.pnjStats != nil:
		return []StageStat{
			{Name: "workers", Count: j.pnjStats.Workers},
			{Name: "partitions", Count: j.pnjStats.Partitions},
			{Name: "partitions-done", Count: j.pnjStats.PartitionsDone.Load()},
			{Name: "partition-tuples", Count: j.pnjStats.Tuples.Load()},
		}
	}
	return nil
}

// Next streams out of the window pipeline under NJ — pipelining is the
// paper's integration claim and what LIMIT relies on — and scans the
// materialized result otherwise.
func (j *TPJoin) Next() (tp.Tuple, bool, error) {
	if j.stream == nil {
		return j.blocking.Next()
	}
	t, ok := j.stream.Next()
	return t, ok, nil
}

func (j *TPJoin) Close() error {
	errL := j.left.Close()
	errR := j.right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// Probs implements Operator.
func (j *TPJoin) Probs() prob.Probs {
	if j.probs != nil {
		return j.probs
	}
	return tp.MergeProbs(
		&tp.Relation{Probs: j.left.Probs()},
		&tp.Relation{Probs: j.right.Probs()},
	)
}

// childRelation obtains the child's tuples as a relation. A bare Scan
// passes its relation through without copying (the common case, keeping
// the NJ pipeline zero-copy); any other child is drained once into a
// per-query temporary.
func childRelation(ctx context.Context, op Operator, tag string) (*tp.Relation, error) {
	if sc, ok := bareScan(op); ok {
		return sc.Relation(), nil
	}
	return materialize(ctx, op, "tmp_"+tag)
}

// bareScan unwraps the ANALYZE accounting decorator when looking for the
// zero-copy Scan fast path: a scan input is borrowed without copying in
// instrumented and plain execution alike, so EXPLAIN ANALYZE measures the
// same plan a plain query runs (no input copies, and the input's memoized
// build structures are reused). The borrowed scan node then
// reports rows=0 — it was never pulled, which is exactly what happened.
func bareScan(op Operator) (*Scan, bool) {
	if i, ok := op.(*Instrumented); ok {
		op = i.op
	}
	sc, ok := op.(*Scan)
	return sc, ok
}
