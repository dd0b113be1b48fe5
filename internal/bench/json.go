package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/engine"
	"tpjoin/internal/plan"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// This file is the machine-readable side of the harness: the same figure
// panels as bench.go, measured with testing.Benchmark so every point
// carries ns/op, allocs/op and B/op, and serialized as the BENCH_<n>.json
// files that track the repository's performance trajectory PR over PR.
// Keep the panel closures in sync with Fig5/Fig6/Fig7 in bench.go.

// Record is one measured panel point. The AUTO series runs whatever
// physical strategy the cost-based picker (SET strategy = auto) chooses
// for the panel's workload; its Pick field names that strategy.
type Record struct {
	Figure      string  `json:"figure"`         // e.g. "5a"
	Dataset     string  `json:"dataset"`        // "webkit" or "meteo"
	Series      string  `json:"series"`         // "NJ", "TA", "NJ-WN", "NJ-WUON", "PNJ", "AUTO"
	Pick        string  `json:"pick,omitempty"` // AUTO only: the picked strategy
	N           int     `json:"n"`              // input size (total tuples)
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Run is one measured sweep: a label (typically the PR or commit the
// numbers belong to), the environment, and the records. The environment
// fields (Go version, OS/arch, CPU count and GOMAXPROCS — the latter
// bounds the PNJ worker pool, so two runs with equal CPUs but different
// GOMAXPROCS are not comparable on Fig. 7) make BENCH_*.json runs
// comparable across machines; TestRunEnvironmentMetadata pins them.
type Run struct {
	Label      string   `json:"label"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Records    []Record `json:"records"`
}

// File is the on-disk shape of a BENCH_<n>.json: one or more runs (e.g.
// the pre-PR baseline and the post-PR measurement) plus free-form notes
// interpreting them (methodology, deltas, caveats).
type File struct {
	Schema int    `json:"schema"`
	Runs   []Run  `json:"runs"`
	Notes  string `json:"notes,omitempty"`
}

// measure times f with the min-of-N methodology the text harness
// documents on Options.Repeats: one testing.Benchmark run supplies the
// allocation profile (allocs/op is deterministic) and the first timing,
// then repeats-1 directly-timed executions refine the minimum. At the
// panels' larger sizes testing.Benchmark fits one or two iterations in
// its time budget, so without the extra repetitions one GC-unlucky
// iteration would be the recorded number.
func measure(repeats int, f func()) testing.BenchmarkResult {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	ns := res.NsPerOp()
	for i := 1; i < repeats; i++ {
		runtime.GC()
		start := time.Now()
		f()
		if d := time.Since(start).Nanoseconds(); d < ns {
			ns = d
		}
	}
	return testing.BenchmarkResult{
		N: 1, T: time.Duration(ns),
		MemAllocs: uint64(res.AllocsPerOp()),
		MemBytes:  uint64(res.AllocedBytesPerOp()),
	}
}

func record(figure, ds, series string, n int, res testing.BenchmarkResult) Record {
	return Record{
		Figure: figure, Dataset: ds, Series: series, N: n,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// autoStrategy is the cost-based picker's verdict for a panel workload
// with default worker settings and the checked-in calibration — the
// strategy a SET strategy = auto session would run the panel's join
// under. taNestedLoop mirrors the panel's TA configuration (Fig. 7a
// forces the nested-loop plan).
func autoStrategy(r, s *tp.Relation, theta tp.EquiTheta, taNestedLoop bool) engine.Strategy {
	est := plan.EstimateJoin(r.Name, stats.Compute(r), s.Name, stats.Compute(s),
		theta, 0, taNestedLoop, nil)
	return est.Chosen
}

// CollectJSON measures the requested figure panels (figs ⊆ {"5","6","7",
// "probagg"}, datasets ⊆ {"webkit","meteo"}) and returns them as a
// labelled run. Options.Repeats is honored the same way the text
// harness honors it: each point is measured Repeats times and the
// fastest run is recorded.
// Fig. 7 additionally measures the PNJ series (the engine-wired
// partitioned-parallel NJ executor), which the text harness does not plot
// because the paper has no parallel baseline. Figs. 5 and 7 also measure
// the AUTO series: the physical strategy the cost-based picker
// (SET strategy = auto) routes the panel's workload to, recorded so the
// BENCH_*.json trajectory shows how auto compares against the best manual
// pick per panel.
func CollectJSON(figs, datasets []string, opt Options, label string) Run {
	run := Run{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, fig := range figs {
		for _, ds := range datasets {
			run.Records = append(run.Records, collectPanel(fig, ds, opt)...)
		}
	}
	return run
}

func collectPanel(fig, ds string, opt Options) []Record {
	var out []Record
	id := figID(fig, ds)
	rep := opt.repeats()
	switch fig {
	case "probagg":
		// "8": the extension panel after the paper's Fig. 7.
		id = figID("8", ds)
		def := defaultWebkit
		if ds == "meteo" {
			def = defaultMeteo
		}
		for _, n := range opt.sizes(def) {
			lams, probs := probAggWorkload(ds, n, opt.seed())
			out = append(out,
				record(id, ds, "SCALAR", n, measure(rep, func() {
					probAggScalar(lams, probs)
				})),
				record(id, ds, "BATCH", n, measure(rep, func() {
					probAggBatch(lams, probs)
				})))
		}
	case "5":
		def := defaultWebkit
		if ds == "meteo" {
			def = defaultMeteo
		}
		for _, n := range opt.sizes(def) {
			r, s, theta := generate(ds, n, opt.seed())
			out = append(out,
				record(id, ds, "NJ", n, measure(rep, func() {
					core.Count(core.LAWAU(core.OverlapJoin(r, s, theta)))
				})),
				record(id, ds, "TA", n, measure(rep, func() {
					align.CountWUO(r, s, theta, align.Config{})
				})))
			// AUTO: run the picker's choice. The WUO microbenchmark has
			// no partitioned variant, so a PNJ (PTA) pick falls back to
			// the NJ (TA) pipeline it amortizes — Pick records the
			// strategy that was actually measured, never a speedup that
			// did not run.
			executed := engine.StrategyNJ
			switch autoStrategy(r, s, theta, false) {
			case engine.StrategyTA, engine.StrategyPTA:
				executed = engine.StrategyTA
			default:
				// StrategyNJ, StrategyPNJ and any future strategy measure
				// the sequential NJ pipeline initialized above.
			}
			auto := record(id, ds, "AUTO", n, measure(rep, func() {
				if executed == engine.StrategyTA {
					align.CountWUO(r, s, theta, align.Config{})
				} else {
					core.Count(core.LAWAU(core.OverlapJoin(r, s, theta)))
				}
			}))
			auto.Pick = executed.String()
			out = append(out, auto)
		}
	case "6":
		def := defaultWebkit
		if ds == "meteo" {
			def = defaultMeteo
		}
		for _, n := range opt.sizes(def) {
			r, s, theta := generate(ds, n, opt.seed())
			wuo := core.Drain(core.LAWAU(core.OverlapJoin(r, s, theta)))
			out = append(out,
				record(id, ds, "NJ-WN", n, measure(rep, func() {
					core.Count(core.LAWAN(core.NewSliceIterator(wuo)))
				})),
				record(id, ds, "NJ-WUON", n, measure(rep, func() {
					core.Count(core.LAWAN(core.LAWAU(core.OverlapJoin(r, s, theta))))
				})),
				record(id, ds, "TA", n, measure(rep, func() {
					align.CountNegating(r, s, theta, align.Config{})
				})))
		}
	case "7":
		def := defaultWebkitNL
		cfg := align.Config{NestedLoop: true}
		if ds == "meteo" {
			def = defaultMeteo
			cfg = align.Config{}
		}
		for _, n := range opt.sizes(def) {
			r, s, theta := generate(ds, n, opt.seed())
			out = append(out,
				record(id, ds, "NJ", n, measure(rep, func() {
					core.LeftOuterJoin(r, s, theta)
				})),
				record(id, ds, "PNJ", n, measure(rep, func() {
					core.ParallelJoin(tp.OpLeft, r, s, theta, 0)
				})),
				record(id, ds, "TA", n, measure(rep, func() {
					align.LeftOuterJoin(r, s, theta, cfg)
				})),
				record(id, ds, "PTA", n, measure(rep, func() {
					align.ParallelJoin(tp.OpLeft, r, s, theta, cfg, 0)
				})))
			pick := autoStrategy(r, s, theta, cfg.NestedLoop)
			auto := record(id, ds, "AUTO", n, measure(rep, func() {
				switch pick {
				case engine.StrategyTA:
					align.LeftOuterJoin(r, s, theta, cfg)
				case engine.StrategyPTA:
					align.ParallelJoin(tp.OpLeft, r, s, theta, cfg, 0)
				case engine.StrategyPNJ:
					core.ParallelJoin(tp.OpLeft, r, s, theta, 0)
				default:
					core.LeftOuterJoin(r, s, theta)
				}
			}))
			auto.Pick = pick.String()
			out = append(out, auto)
		}
	default:
		panic(fmt.Sprintf("bench: unknown figure %q", fig))
	}
	return out
}

// WriteJSON serializes a File with the given runs, indented for diffable
// check-ins.
func WriteJSON(w io.Writer, runs ...Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(File{Schema: 1, Runs: runs})
}
