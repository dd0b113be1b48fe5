// Package bench is the experiment harness that regenerates the paper's
// evaluation figures (Figs. 5, 6 and 7) as runtime series over input size,
// for the NJ approach (internal/core) and the TA baseline (internal/align)
// on the synthetic Webkit and Meteo workloads (internal/dataset).
//
// A figure panel is defined once, as a row of the panels table below:
// its sizes and TA configuration per dataset and its series as closure
// builders. Everything else is a view over that table — Measure fills
// Records (json.go), Figures / Format render records as the text tables
// cmd/tpbench prints, BENCH_<n>.json serializes them, and the root
// package's `go test -bench` loops over Bind.
//
// Every figure is reproduced in *shape*: which approach wins, by roughly
// what factor, and how the two datasets differ. Absolute numbers depend on
// the host and on this being a Go reimplementation rather than the paper's
// modified PostgreSQL kernel.
package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/plan"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// Options configures a harness run.
type Options struct {
	// Sizes are the input sizes to sweep (total tuples across both
	// relations). Defaults depend on the figure and dataset.
	Sizes []int
	// Seed drives dataset generation.
	Seed int64
	// Repeats is the number of timed repetitions per point; the minimum
	// is reported (standard practice for wall-clock microbenchmarks).
	Repeats int
}

func (o Options) repeats() int {
	if o.Repeats <= 0 {
		return 1
	}
	return o.Repeats
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) sizes(def []int) []int {
	if len(o.Sizes) > 0 {
		return o.Sizes
	}
	return def
}

// Datasets are the two synthetic workloads every panel runs on.
var Datasets = []string{"webkit", "meteo"}

// generate returns the two input relations of the named dataset with n
// total tuples.
func generate(ds string, n int, seed int64) (*tp.Relation, *tp.Relation, tp.EquiTheta) {
	switch ds {
	case "webkit":
		r, s := dataset.Webkit(n, seed)
		return r, s, dataset.WebkitTheta()
	case "meteo":
		r, s := dataset.Meteo(n, seed)
		return r, s, dataset.MeteoTheta()
	default:
		panic(fmt.Sprintf("bench: unknown dataset %q", ds))
	}
}

// input is one generated workload a panel's series run on; cfg is the
// panel's TA configuration for the dataset.
type input struct {
	r, s  *tp.Relation
	theta tp.EquiTheta
	cfg   align.Config
}

// series is one line of a panel: build binds the measured closure to an
// input, doing any untimed preparation first.
type series struct {
	name  string
	build func(in input) func()
}

// Panel is the definition of one figure panel.
type Panel struct {
	// Fig is the value of tpbench's -fig flag and the stem of the figure
	// ID ("5" → "5a" on Webkit, "5b" on Meteo).
	Fig   string
	Title string
	// Extension marks panels beyond the paper's figures, run only on
	// request (tpbench -extensions).
	Extension bool
	// sizes and cfg are per dataset; a missing cfg is the hash plan.
	sizes map[string][]int
	cfg   map[string]align.Config
	// auto adds the AUTO series: whichever of the panel's series the
	// cost-based picker (SET strategy = auto) routes the input to.
	auto   bool
	series []series
}

// Default sweep sizes. The paper sweeps 40K–200K; the TA plans that are
// quadratic on this substrate (nested loop) use smaller sweeps so a full
// harness run stays in minutes. cmd/tpbench exposes -sizes to override.
var (
	defaultSizes   = map[string][]int{"webkit": {50000, 100000, 150000, 200000}, "meteo": {10000, 20000, 30000, 40000}}
	nestedLoopSize = map[string][]int{"webkit": {5000, 10000, 15000, 20000}, "meteo": defaultSizes["meteo"]}
)

// joinSeries is the NJ / TA pair of one join operator's full evaluation
// (output-tuple formation and probability computation included).
func joinSeries(op tp.Op) []series {
	return []series{
		{"NJ", func(in input) func() { return func() { core.Join(op, in.r, in.s, in.theta) } }},
		{"TA", func(in input) func() { return func() { align.Join(op, in.r, in.s, in.theta, in.cfg) } }},
	}
}

// Panels is the table of figure panels, in presentation order.
var Panels = []Panel{
	{
		// NJ computes WUO with one conventional join plus the LAWAU sweep;
		// TA needs the two conventional joins of the alignment step. The
		// WUO microbenchmark has no partitioned variant, so AUTO measures
		// the sequential pipeline of the family the picker chose.
		Fig: "5", Title: "WUO: Overlapping and Unmatched Windows", sizes: defaultSizes, auto: true,
		series: []series{
			{"NJ", func(in input) func() {
				return func() { core.Count(core.LAWAU(core.OverlapJoin(in.r, in.s, in.theta))) }
			}},
			{"TA", func(in input) func() { return func() { align.CountWUO(in.r, in.s, in.theta, in.cfg) } }},
		},
	},
	{
		// NJ-WN is the LAWAN sweep alone on a pre-computed WUO stream,
		// NJ-WUON includes the WUO computation, TA must re-run the
		// alignment joins to derive the negated fragments.
		Fig: "6", Title: "Negating Windows", sizes: defaultSizes,
		series: []series{
			{"NJ-WN", func(in input) func() {
				wuo := core.Drain(core.LAWAU(core.OverlapJoin(in.r, in.s, in.theta)))
				return func() { core.Count(core.LAWAN(core.NewSliceIterator(wuo))) }
			}},
			{"NJ-WUON", func(in input) func() {
				return func() { core.Count(core.LAWAN(core.LAWAU(core.OverlapJoin(in.r, in.s, in.theta)))) }
			}},
			{"TA", func(in input) func() { return func() { align.CountNegating(in.r, in.s, in.theta, in.cfg) } }},
		},
	},
	{
		// The complete operator. On Webkit the TA baseline runs the
		// nested-loop plan PostgreSQL's optimizer chose in the paper (hence
		// the gap of Fig. 7a); on Meteo both use hash partitioning and the
		// gap is the alignment overhead. PNJ / PTA are the partitioned
		// executors, which the paper has no counterpart for.
		Fig: "7", Title: "TP Left Outer-Join", sizes: nestedLoopSize, auto: true,
		cfg: map[string]align.Config{"webkit": {NestedLoop: true}},
		series: append(joinSeries(tp.OpLeft),
			series{"PNJ", func(in input) func() {
				return func() { core.ParallelJoin(tp.OpLeft, in.r, in.s, in.theta, 0) }
			}},
			series{"PTA", func(in input) func() {
				return func() { align.ParallelJoin(tp.OpLeft, in.r, in.s, in.theta, in.cfg, 0) }
			}}),
	},
	// Extensions beyond the four-page paper: the anti join (the operator
	// Table II defines via WU ∪ WN) and the full outer join (all five
	// window sets of Table II).
	{Fig: "A1", Title: "TP Anti Join (extension)", Extension: true, sizes: defaultSizes, series: joinSeries(tp.OpAnti)},
	{Fig: "A2", Title: "TP Full Outer Join (extension)", Extension: true, sizes: defaultSizes, series: joinSeries(tp.OpFull)},
}

// SelectPanels resolves tpbench's -fig value ("all" or the Fig of one of
// the paper's panels) and its -extensions switch to the panels to run.
func SelectPanels(fig string, extensions bool) ([]Panel, error) {
	var out []Panel
	known := fig == "all"
	for _, p := range Panels {
		switch {
		case p.Extension:
			if extensions {
				out = append(out, p)
			}
		case fig == "all" || fig == p.Fig:
			known = true
			out = append(out, p)
		}
	}
	if !known {
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
	return out, nil
}

// ID returns the figure ID of the panel on ds, e.g. "5a".
func (p Panel) ID(ds string) string {
	if ds == "webkit" {
		return p.Fig + "a"
	}
	return p.Fig + "b"
}

// Sizes returns the panel's default sweep on ds.
func (p Panel) Sizes(ds string) []int { return p.sizes[ds] }

// Runner is one series of a panel bound to a generated input. Pick names
// the series an AUTO runner executes.
type Runner struct {
	Series string
	Pick   string
	Run    func()
}

// Bind generates the ds input of n total tuples and binds every series
// of the panel to it, AUTO last.
func (p Panel) Bind(ds string, n int, seed int64) []Runner {
	r, s, theta := generate(ds, n, seed)
	in := input{r: r, s: s, theta: theta, cfg: p.cfg[ds]}
	out := make([]Runner, 0, len(p.series)+1)
	for _, sr := range p.series {
		out = append(out, Runner{Series: sr.name, Run: sr.build(in)})
	}
	if p.auto {
		// The picker's verdict with default worker settings and the
		// checked-in calibration. A panel without a series for it (no
		// partitioned variant) runs the sequential pipeline of the picked
		// family: Pick records what was measured, never a speedup that
		// did not run.
		est := plan.EstimateJoin(r.Name, stats.Compute(r), s.Name, stats.Compute(s), theta, 0, in.cfg.NestedLoop, nil)
		pick := est.Chosen
		named := func(sr series) bool { return sr.name == pick.String() }
		if !slices.ContainsFunc(p.series, named) {
			pick = est.Chosen.Family()
		}
		sr := p.series[slices.IndexFunc(p.series, named)]
		out = append(out, Runner{Series: "AUTO", Pick: pick.String(), Run: sr.build(in)})
	}
	return out
}

// Measure sweeps the panel on ds and returns one record per series and
// size.
func (p Panel) Measure(ds string, opt Options) []Record {
	var out []Record
	for _, n := range opt.sizes(p.Sizes(ds)) {
		for _, rn := range p.Bind(ds, n, opt.seed()) {
			ns, allocs, bytes := measure(opt.repeats(), rn.Run)
			out = append(out, Record{
				Figure: p.ID(ds), Dataset: ds, Series: rn.Series, Pick: rn.Pick, N: n,
				Iterations: 1, NsPerOp: float64(ns), AllocsPerOp: allocs, BytesPerOp: bytes,
			})
		}
	}
	return out
}

// measure is the harness's one timer, min-of-N: one testing.Benchmark
// run supplies the allocation profile (allocs/op is deterministic) and
// the first timing, then repeats-1 directly-timed executions refine the
// minimum. At the panels' larger sizes testing.Benchmark fits one or two
// iterations in its time budget, so without the extra repetitions one
// GC-unlucky iteration would be the recorded number.
func measure(repeats int, f func()) (ns, allocs, bytes int64) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	ns = res.NsPerOp()
	for i := 1; i < repeats; i++ {
		runtime.GC()
		start := time.Now()
		f()
		if d := time.Since(start).Nanoseconds(); d < ns {
			ns = d
		}
	}
	return ns, res.AllocsPerOp(), res.AllocedBytesPerOp()
}

// Point is one measurement of a text figure: input size (total tuples
// over both relations) and wall-clock runtime.
type Point struct {
	N      int
	Millis float64
}

// Series is one line of a text figure. Picks is set for AUTO: the series
// it ran, per point.
type Series struct {
	Name   string
	Points []Point
	Picks  []string
}

// Figure is the text view of one figure panel.
type Figure struct {
	ID      string // e.g. "5a"
	Title   string
	Dataset string // "webkit" or "meteo"
	Series  []Series
}

// Figures groups records into text figures, figures and series in order
// of first appearance; titles come from the panels table.
func Figures(recs []Record) []Figure {
	var figs []Figure
	for _, rc := range recs {
		fi := slices.IndexFunc(figs, func(f Figure) bool { return f.ID == rc.Figure })
		if fi < 0 {
			fig := Figure{ID: rc.Figure, Dataset: rc.Dataset}
			for _, p := range Panels {
				if p.ID(rc.Dataset) == rc.Figure {
					fig.Title = p.Title
				}
			}
			fi, figs = len(figs), append(figs, fig)
		}
		fig := &figs[fi]
		si := slices.IndexFunc(fig.Series, func(s Series) bool { return s.Name == rc.Series })
		if si < 0 {
			si, fig.Series = len(fig.Series), append(fig.Series, Series{Name: rc.Series})
		}
		sr := &fig.Series[si]
		sr.Points = append(sr.Points, Point{N: rc.N, Millis: rc.NsPerOp / 1e6})
		if rc.Pick != "" {
			sr.Picks = append(sr.Picks, rc.Pick)
		}
	}
	return figs
}

// Format renders a figure as a fixed-width text table in the layout of the
// paper's plots: one row per input size, one column per series.
func Format(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. %s — %s (%s)\n", fig.ID, fig.Title, fig.Dataset)
	fmt.Fprintf(&b, "%-22s", "Input Tuples [K]")
	var ns []int // all series share the size axis
	for _, s := range fig.Series {
		fmt.Fprintf(&b, "%14s", s.Name+" [ms]")
		for _, p := range s.Points {
			if !slices.Contains(ns, p.N) {
				ns = append(ns, p.N)
			}
		}
	}
	b.WriteByte('\n')
	slices.Sort(ns)
	for _, n := range ns {
		fmt.Fprintf(&b, "%-22d", n/1000)
		for _, s := range fig.Series {
			val := ""
			for _, p := range s.Points {
				if p.N == n {
					val = fmt.Sprintf("%.1f", p.Millis)
				}
			}
			fmt.Fprintf(&b, "%14s", val)
		}
		b.WriteByte('\n')
	}
	for _, s := range fig.Series {
		if len(s.Picks) > 0 {
			fmt.Fprintf(&b, "  %s ran: %s\n", s.Name, strings.Join(s.Picks, " "))
		}
	}
	return b.String()
}

// Speedups returns, per input size, the ratio of the other series'
// runtime to the base series' runtime (TA/NJ in Figs. 5 and 7).
func Speedups(fig Figure, base, other string) map[int]float64 {
	get := func(name string) map[int]float64 {
		m := make(map[int]float64)
		for _, s := range fig.Series {
			if s.Name == name {
				for _, p := range s.Points {
					m[p.N] = p.Millis
				}
			}
		}
		return m
	}
	b, o := get(base), get(other)
	out := make(map[int]float64)
	for n, bv := range b {
		if ov, ok := o[n]; ok && bv > 0 {
			out[n] = ov / bv
		}
	}
	return out
}
