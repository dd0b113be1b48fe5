package bench

// The cost-model calibrator behind `tpbench -calibrate`: it measures the
// per-primitive costs of the physical join strategies on the current host
// and fits plan.Calibration's constants from them, turning DESIGN.md's
// re-calibration procedure into a command.
//
// What is measured are the strategies' algorithmic cores — the same
// quantities the paper's Fig. 5/6 microbenchmarks isolate: the NJ window
// pipeline (overlap join + LAWAU sweep), the TA alignment step (both
// conventional joins), and the nested-loop TA plan. Output
// materialization (tuple formation, lineage construction, probability
// evaluation) is deliberately outside the fit: both families pay it per
// output row for the *same* output, so it shifts every strategy's cost by
// a common tail while the per-key-concurrency shape — NJ quadratic, TA
// linear — is what decides the pick.
//
// The fit assigns each constant to the profile it exists to
// discriminate, because per-tuple costs are not profile-independent (key
// cardinality changes grouping and probe costs, and a two-point fit
// across structurally different workloads is ill-conditioned):
//
//   - the per-tuple constants come from the *selective* profile (the
//     Webkit preset), where pair terms are marginal and the measurement
//     is the per-tuple pipeline cost that decides that side of the
//     paper's dichotomy;
//   - the pair constants come from the *non-selective* profile (a large
//     Meteo preset, where per-key concurrency makes the pair terms most
//     of the runtime) — fitted at the profile they discriminate, because
//     the per-pair costs drift with concurrency (cache and batching
//     effects) and an extrapolation from an exaggerated workload misses
//     the crossover region;
//   - one refinement pass re-subtracts the fitted pair share from the
//     selective measurement (the cross terms are small, so one pass
//     converges).
//
// Shape terms come from the model's own plan.JoinShape (pairs·active for
// NJ, pairs for TA), so fitted constants and estimates share one unit
// system.

import (
	"fmt"
	"runtime"
	"strings"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/plan"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// CalibrateOptions configures a calibration run.
type CalibrateOptions struct {
	// Quick shrinks the workloads for CI smoke runs: the constants come
	// out noisier but structurally valid.
	Quick bool
	// Repeats is the number of timed repetitions per measurement (the
	// minimum is kept); 0 means 5.
	Repeats int
	// Label is recorded in the emitted calibration's provenance.
	Label string
}

func (o CalibrateOptions) repeats() int {
	if o.Repeats <= 0 {
		return 5 // keep the min over enough runs that a busy host cannot inflate a fit point
	}
	return o.Repeats
}

// workload bundles one measured join input with its model shape terms.
type workload struct {
	r, s  *tp.Relation
	theta tp.EquiTheta
	n     float64 // total input tuples
	pairs float64
	activ float64
}

func newWorkload(r, s *tp.Relation, theta tp.EquiTheta) workload {
	ls, rs := stats.Compute(r), stats.Compute(s)
	pairs, active := plan.JoinShape(ls, rs, theta)
	return workload{r: r, s: s, theta: theta,
		n: float64(ls.Tuples + rs.Tuples), pairs: pairs, activ: active}
}

// selectiveWorkload is the per-tuple probe: the Webkit preset itself —
// many keys, small groups, λ ≪ 1 — where runtime is per-tuple pipeline
// cost and the pair share is a correction, not the signal.
func selectiveWorkload(n int) workload {
	r, s := dataset.Webkit(n, 101)
	return newWorkload(r, s, dataset.WebkitTheta())
}

// denseWorkload is the pair-term probe: the Meteo preset at a size where
// per-key concurrency has grown enough that the pair terms (NJ's
// quadratic window fan-out, TA's linear fragmentation) are most of the
// runtime — the residual fit divides signal measured in the
// concurrency region the picker actually discriminates in.
func denseWorkload(n int) workload {
	r, s := dataset.Meteo(n, 103)
	return newWorkload(r, s, dataset.MeteoTheta())
}

// fitFamily fits one family's (tuple, pair) constants: the per-tuple
// term from the selective measurement, the pair term from the dense
// residual, with one refinement pass re-subtracting the pair share from
// the selective point. Both are clamped to a small positive floor —
// measurement noise must not produce a zero or negative model constant.
func fitFamily(tSel, tDense float64, sel, dense workload, pSel, pDense float64) (tuple, pair float64) {
	tuple = tSel / sel.n
	for i := 0; i < 2; i++ {
		pair = (tDense - tuple*dense.n) / pDense
		if pair < fitFloor {
			pair = fitFloor
		}
		tuple = (tSel - pair*pSel) / sel.n
		if tuple < fitFloor {
			tuple = fitFloor
		}
	}
	return tuple, pair
}

// fitFloor is the smallest model-nanosecond value a fitted constant may
// take; constants clamped to it are reported in the calibration's Notes.
const fitFloor = 0.5

// neutralParSetup and neutralParTuple are the parallel-overhead defaults
// a single-CPU calibration host ships instead of its own meaningless
// measurements: a mid-range per-worker goroutine/buffer setup charge and
// a per-tuple partitioning cost in line with multi-core measurements of
// the partitioned executors.
const (
	neutralParSetup = 75000
	neutralParTuple = 80
)

// Calibrate measures the strategy primitives and returns the fitted
// calibration. A full run takes tens of seconds; Quick mode a few.
func Calibrate(opt CalibrateOptions) plan.Calibration {
	ns := func(f func()) float64 {
		t, _, _ := measure(opt.repeats(), f)
		return float64(t)
	}
	selN, denseN, midN, nlN, tinyN := 20000, 24000, 8000, 2000, 1200
	if opt.Quick {
		selN, denseN, midN, nlN, tinyN = 4000, 6000, 2000, 600, 600
	}
	sel := selectiveWorkload(selN)
	dense := denseWorkload(denseN)

	// NJ: the window pipeline (overlap join + LAWAU), the Fig. 5 core.
	njT := func(w workload) float64 {
		return ns(func() {
			core.Count(core.LAWAU(core.OverlapJoin(w.r, w.s, w.theta)))
		})
	}
	// TA: both conventional joins of the alignment step (CountWUO).
	taT := func(w workload) float64 {
		return ns(func() {
			align.CountWUO(w.r, w.s, w.theta, align.Config{})
		})
	}
	njSel, njDense := njT(sel), njT(dense)
	taSel, taDense := taT(sel), taT(dense)
	njTuple, njWindow := fitFamily(njSel, njDense, sel, dense, sel.pairs*sel.activ, dense.pairs*dense.activ)
	taTuple, taFrag := fitFamily(taSel, taDense, sel, dense, sel.pairs, dense.pairs)

	// TA nested loop: the Fig. 7a plan, quadratic in the input sizes.
	rnl, snl := dataset.Webkit(nlN, 3)
	nlTime := ns(func() {
		align.CountWUO(rnl, snl, dataset.WebkitTheta(), align.Config{NestedLoop: true})
	})
	taNLPair := (nlTime - taTuple*float64(rnl.Len()+snl.Len())) /
		(float64(rnl.Len()) * float64(snl.Len()))
	if taNLPair < fitFloor {
		taNLPair = fitFloor
	}

	// Partitioned executors: the per-worker setup charge from a tiny
	// workload where partitioning overhead dominates, the per-tuple
	// partitioning cost from the dense workload at one worker (no
	// amortization, pure overhead vs the sequential pipeline).
	var parSetup, parTuple float64
	if runtime.GOMAXPROCS(0) > 1 {
		rt, st := dataset.Meteo(tinyN, 3)
		tiny := newWorkload(rt, st, dataset.MeteoTheta())
		t1 := ns(func() { core.ParallelJoin(tp.OpLeft, tiny.r, tiny.s, tiny.theta, 1) })
		t8 := ns(func() { core.ParallelJoin(tp.OpLeft, tiny.r, tiny.s, tiny.theta, 8) })
		parSetup = (t8 - t1) / 7
		if parSetup < 1000 {
			parSetup = 1000 // goroutine + partition-buffer floor
		}
		rm, sm := dataset.Meteo(midN, 103)
		mid := newWorkload(rm, sm, dataset.MeteoTheta())
		seq := ns(func() { core.Join(tp.OpLeft, mid.r, mid.s, mid.theta) })
		par1 := ns(func() { core.ParallelJoin(tp.OpLeft, mid.r, mid.s, mid.theta, 1) })
		parTuple = (par1 - seq - parSetup) / mid.n
		if parTuple < fitFloor {
			parTuple = fitFloor
		}
	} else {
		// A single-CPU host cannot measure parallel overheads that mean
		// anything on the multi-core hosts the default calibration also
		// serves: measured values there reflect scheduler contention, not
		// setup cost. Substitute the documented neutral defaults and say
		// so in the notes instead of shipping self-invalidating numbers.
		parSetup, parTuple = neutralParSetup, neutralParTuple
	}

	cal := plan.Calibration{
		NJTuple:  round2(njTuple),
		NJWindow: round2(njWindow),
		TATuple:  round2(taTuple),
		TAFrag:   round2(taFrag),
		TANLPair: round2(taNLPair),
		ParTuple: round2(parTuple),
		ParSetup: round2(parSetup),
		// The parallel-amortization policy is not host-measurable in
		// general (think single-CPU CI): keep the documented defaults.
		ParEfficiency: 0.5,
		ParMaxSpeedup: 5,

		Label:      opt.Label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	cal.Notes = calibrationCaveats(cal)
	return cal
}

// calibrationCaveats makes degenerate fits visible: a constant sitting at
// the fitter's floor means the measured residual was below resolution
// (legitimate — e.g. the batched TA's per-fragment cost — but worth
// knowing), and parallel overheads measured on a single-CPU host say
// nothing about multi-core scheduling. The string travels in the
// calibration file and in the tpbench output.
func calibrationCaveats(c plan.Calibration) string {
	var caveats []string
	floored := []string{}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"nj_tuple_ns", c.NJTuple}, {"nj_window_ns", c.NJWindow},
		{"ta_tuple_ns", c.TATuple}, {"ta_frag_ns", c.TAFrag},
		{"ta_nl_pair_ns", c.TANLPair}, {"par_tuple_ns", c.ParTuple},
	} {
		if f.v <= fitFloor {
			floored = append(floored, f.name)
		}
	}
	if len(floored) > 0 {
		caveats = append(caveats, fmt.Sprintf(
			"at fit floor (measured residual below resolution): %s",
			strings.Join(floored, ", ")))
	}
	if c.GoMaxProcs <= 1 {
		caveats = append(caveats,
			"GOMAXPROCS=1 host: par_setup_ns/par_tuple_ns are the neutral defaults, not measurements — re-calibrate on a multi-core host to measure the parallel overheads")
	}
	return strings.Join(caveats, "; ")
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// CalibrationReport renders the fitted constants (and any fit caveats)
// for the tpbench output.
func CalibrationReport(c plan.Calibration) string {
	out := fmt.Sprintf(
		"nj: %.4g ns/tuple, %.4g ns/window-unit\nta: %.4g ns/tuple, %.4g ns/pair, %.4g ns/nl-pair\npar: %.4g ns/tuple, %.4g ns/worker (eff %.2g, max %.2g×)\n",
		c.NJTuple, c.NJWindow, c.TATuple, c.TAFrag, c.TANLPair,
		c.ParTuple, c.ParSetup, c.ParEfficiency, c.ParMaxSpeedup)
	if c.Notes != "" {
		out += "caveats: " + c.Notes + "\n"
	}
	return out
}
