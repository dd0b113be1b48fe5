package plan

// The planner's cost model for physical TP-join strategy selection
// (SET strategy = auto). The paper's central evaluation result is that no
// strategy dominates: the lineage-aware NJ pipeline wins on selective
// workloads with small per-key groups (Webkit), temporal alignment wins
// on non-selective workloads with large per-key groups (Meteo), and the
// partitioned-parallel executors amortize either across workers when the
// key cardinality admits partitioning. The model reproduces that ordering
// from catalog statistics (internal/stats):
//
//   - NJ pays a per-tuple pipeline cost plus a window term that grows
//     with the per-key group size *squared*: the sweep materializes one
//     window per overlapping same-key pair (pairs ≈ n·λ, with λ the
//     partner side's per-key temporal concurrency) and maintains an
//     active set of ~λ tuples per window, so the term is ∝ n·λ².
//   - TA pays key grouping and event-list construction per input tuple
//     plus alignment work linear in the fragments and pairings it
//     produces (≈ pairs) — linear, not quadratic, in λ, which is why
//     alignment takes over as the per-key concurrency grows.
//   - PNJ and PTA amortize the respective pair term across join_workers
//     partitions when the key cardinality is at least the worker count
//     (a key's group is indivisible), with partitioning overhead per
//     tuple, a per-worker setup charge, and sublinear parallel
//     efficiency (skew, materialization, memory bandwidth).
//
// The constants are *measured*, not assumed: plan.Calibration carries the
// per-primitive costs fitted by `tpbench -calibrate` on a real host (the
// checked-in calibration.json by default, a session override via
// SET calibration = '<file>'). Since the alignment baseline was rebuilt
// on the batched execution core, its measured constants stand on their
// own — the model no longer needs the paper's relative constants to
// reproduce the paper's workload dichotomy (DESIGN.md §Cost model).

import (
	"fmt"
	"math"

	"tpjoin/internal/engine"
	"tpjoin/internal/par"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// Estimate is the cost model's verdict on one TP join: the estimated cost
// per physical strategy (model nanoseconds, indexed by engine.Strategy)
// and the cheapest choice.
type Estimate struct {
	Chosen engine.Strategy
	Costs  [engine.NumStrategies]float64
	// Inputs holds one human-readable summary line per join input with
	// the statistics the model consumed; EXPLAIN prints them.
	Inputs []string
}

// JoinShape derives the two workload terms every strategy's cost is built
// from: pairs, the expected number of overlapping same-key tuple pairs
// (counted from both sides — each tuple meets the partner side's per-key
// temporal concurrency), and active, NJ's mean active-set size per window
// (never below one tuple). The calibrator fits its constants through this
// same function, so fitted constants and estimates share one unit system.
func JoinShape(ls, rs *stats.Stats, theta tp.EquiTheta) (pairs, active float64) {
	lk, rk := ls.Key(theta.RCols), rs.Key(theta.SCols)
	nl, nr := float64(ls.Tuples), float64(rs.Tuples)
	pairs = nl*rk.Concurrency + nr*lk.Concurrency
	active = math.Max(1, (lk.Concurrency+rk.Concurrency)/2)
	return pairs, active
}

// EstimateJoin scores the physical strategies for a join of the two
// relations summarized by ls and rs under theta, priced by cal (nil means
// the checked-in default calibration). workers is the session's
// join_workers setting (0 = one per CPU); taNestedLoop prices the TA
// baseline's nested-loop plan instead of its hash plan.
func EstimateJoin(lname string, ls *stats.Stats, rname string, rs *stats.Stats, theta tp.EquiTheta, workers int, taNestedLoop bool, cal *Calibration) Estimate {
	if cal == nil {
		cal = DefaultCalibration()
	}
	nl, nr := float64(ls.Tuples), float64(rs.Tuples)
	lk, rk := ls.Key(theta.RCols), rs.Key(theta.SCols)
	pairs, active := JoinShape(ls, rs, theta)

	var e Estimate
	e.Costs[engine.StrategyNJ] = cal.NJTuple*(nl+nr) + cal.NJWindow*pairs*active

	// The TA pair term: alignment work linear in the overlapping same-key
	// pairs under the hash plan, the full cross product under the forced
	// nested-loop plan (Fig. 7a's shape).
	taPairTerm := cal.TAFrag * pairs
	if taNestedLoop {
		taPairTerm = cal.TANLPair * nl * nr
	}
	e.Costs[engine.StrategyTA] = cal.TATuple*(nl+nr) + taPairTerm

	// A key's group is indivisible across partitions, so parallelism is
	// bounded by the matched-key cardinality.
	w := max(1, min(par.Workers(workers), lk.Distinct, rk.Distinct))
	speedup := math.Min(cal.ParMaxSpeedup, 1+float64(w-1)*cal.ParEfficiency)
	overhead := cal.ParTuple*(nl+nr) + cal.ParSetup*float64(w)
	e.Costs[engine.StrategyPNJ] = cal.NJTuple*(nl+nr) + cal.NJWindow*pairs*active/speedup + overhead
	e.Costs[engine.StrategyPTA] = cal.TATuple*(nl+nr) + taPairTerm/speedup + overhead

	e.Chosen = engine.StrategyNJ
	for s := engine.Strategy(0); s < engine.NumStrategies; s++ {
		if e.Costs[s] < e.Costs[e.Chosen] {
			e.Chosen = s
		}
	}
	e.Inputs = []string{
		inputSummary(lname, ls, lk),
		inputSummary(rname, rs, rk),
	}
	return e
}

func inputSummary(name string, s *stats.Stats, k stats.KeyInfo) string {
	return fmt.Sprintf("%s: %d tuples, %d join keys, group mean %.1f max %d, concurrency %.2f",
		name, s.Tuples, k.Distinct, k.MeanGroup, k.MaxGroup, k.Concurrency)
}

// autoPickRecord converts an Estimate into the engine-side record EXPLAIN
// renders.
func (e Estimate) autoPickRecord(auto bool) *engine.AutoPick {
	return &engine.AutoPick{Auto: auto, Costs: e.Costs, Inputs: e.Inputs}
}
