// Command tpbench regenerates the paper's evaluation figures as text
// series: runtime vs. input size for the NJ approach and the TA baseline
// on the synthetic Webkit and Meteo workloads.
//
// Usage:
//
//	tpbench                 # all figures with default sweeps
//	tpbench -fig 5          # only Fig. 5 (both datasets)
//	tpbench -fig 7 -dataset webkit -sizes 5000,10000,20000
//	tpbench -extensions     # also run the anti/full-outer extensions
//	tpbench -repeats 3      # report the minimum of 3 runs per point
//	tpbench -json BENCH.json -label post-PR2
//	                        # the same panels, series and measurements as
//	                        # a machine-readable run: ns/op, allocs/op and
//	                        # B/op per point (tracks the perf trajectory;
//	                        # see BENCH_*.json at the repo root)
//	tpbench -calibrate internal/plan/calibration.json
//	                        # measure the cost model's per-primitive
//	                        # constants on this host and write them as a
//	                        # plan.Calibration JSON (the checked-in default
//	                        # the auto picker prices with; sessions load
//	                        # others via SET calibration = '<file>').
//	                        # -quick shrinks the workloads for smoke runs.
//	tpbench -compare BENCH_6.json
//	                        # developer mode: summarize the repo
//	                        # benchmark's parent/change pairs in the
//	                        # file's e2e list (scripts/e2e-pairs.sh) per
//	                        # workload × end-to-end metric, against the
//	                        # bounds of ./BENCHMARK.json, as a Markdown
//	                        # table; exits 1 when a row regresses.
//
// Output format mirrors the paper's plots: one row per input size (in K),
// one column per series, runtimes in milliseconds. Speedup summaries
// (TA/NJ) are printed per figure for direct comparison with the factors
// reported in the paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tpjoin/internal/bench"
	"tpjoin/internal/plan"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to run: 5, 6, 7 or all")
		ds         = flag.String("dataset", "both", "dataset: webkit, meteo or both")
		sizesStr   = flag.String("sizes", "", "comma-separated input sizes (total tuples), overrides defaults")
		seed       = flag.Int64("seed", 1, "dataset generation seed")
		repeats    = flag.Int("repeats", 1, "timed repetitions per point (minimum reported)")
		extensions = flag.Bool("extensions", false, "also run the anti-join and full-outer-join extensions")
		ablation   = flag.String("ablation", "", "run an ablation instead of the figures: selectivity or groups")
		jsonPath   = flag.String("json", "", "write the run as machine-readable records (ns/op, allocs/op, B/op) to this file instead of text figures")
		label      = flag.String("label", "tpbench", "label recorded in the -json run or -calibrate file")
		calibrate  = flag.String("calibrate", "", "measure the cost model's per-primitive constants and write a plan.Calibration JSON to this file")
		quick      = flag.Bool("quick", false, "with -calibrate: shrink the measurement workloads (CI smoke mode)")
		compare    = flag.String("compare", "", "summarize this BENCH_<n>.json's e2e parent/change pairs against ./BENCHMARK.json's bounds")
	)
	flag.Parse()

	if *compare != "" {
		if err := runCompare(*compare, "BENCHMARK.json"); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *calibrate != "" {
		// The -repeats default (1) suits the text figures; calibration
		// wants its own min-of-5 default, so the flag only overrides it
		// when explicitly set.
		calRepeats := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "repeats" {
				calRepeats = *repeats
			}
		})
		cal := bench.Calibrate(bench.CalibrateOptions{Quick: *quick, Repeats: calRepeats, Label: *label})
		data, err := cal.MarshalIndent()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*calibrate, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
			os.Exit(1)
		}
		// Round-trip the file through the loader the SET command and the
		// embedded default use: an emitted calibration that plan cannot
		// parse back is a bug worth failing loudly on.
		if _, err := plan.LoadCalibration(*calibrate); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: emitted calibration does not round-trip: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("calibration written to %s (round-trip ok)\n%s", *calibrate, bench.CalibrationReport(cal))
		return
	}

	opt := bench.Options{Seed: *seed, Repeats: *repeats}
	if *sizesStr != "" {
		for _, part := range strings.Split(*sizesStr, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "tpbench: bad size %q\n", part)
				os.Exit(2)
			}
			opt.Sizes = append(opt.Sizes, n)
		}
	}

	if *ablation != "" {
		var f bench.Figure
		switch *ablation {
		case "selectivity":
			f = bench.AblationSelectivity(40000, nil, opt)
		case "groups":
			f = bench.AblationGroupSize(40000, nil, opt)
		default:
			fmt.Fprintf(os.Stderr, "tpbench: unknown ablation %q\n", *ablation)
			os.Exit(2)
		}
		fmt.Println(bench.Format(f))
		printSpeedups(f)
		return
	}

	datasets := bench.Datasets
	if *ds != "both" {
		if !slices.Contains(datasets, *ds) {
			fmt.Fprintf(os.Stderr, "tpbench: unknown dataset %q\n", *ds)
			os.Exit(2)
		}
		datasets = []string{*ds}
	}
	panels, err := bench.SelectPanels(*fig, *extensions)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
		os.Exit(2)
	}

	// Text and JSON are two renderings of the same records.
	run := bench.NewRun(*label)
	for _, p := range panels {
		for _, d := range datasets {
			recs := p.Measure(d, opt)
			run.Records = append(run.Records, recs...)
			if *jsonPath == "" {
				for _, f := range bench.Figures(recs) {
					fmt.Println(bench.Format(f))
					printSpeedups(f)
					fmt.Println()
				}
			}
		}
	}
	if *jsonPath == "" {
		return
	}
	f, err := os.Create(*jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
		os.Exit(1)
	}
	if err := bench.WriteJSON(f, run); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records to %s\n", len(run.Records), *jsonPath)
}

func printSpeedups(f bench.Figure) {
	base := f.Series[0].Name
	for _, s := range f.Series[1:] {
		sp := bench.Speedups(f, base, s.Name)
		if len(sp) == 0 {
			continue
		}
		var ns []int
		for n := range sp {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = fmt.Sprintf("%.1f×", sp[n])
		}
		fmt.Printf("  speedup %s/%s: %s\n", s.Name, base, strings.Join(parts, " "))
	}
}

// runCompare prints the comparison table of the e2e pairs in benchPath
// under the bounds in boundsPath.
func runCompare(benchPath, boundsPath string) error {
	var f bench.File
	var b bench.Bounds
	for _, in := range []struct {
		path string
		v    any
	}{{benchPath, &f}, {boundsPath, &b}} {
		data, err := os.ReadFile(in.path)
		if err == nil {
			err = json.Unmarshal(data, in.v)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
	}
	rows, err := bench.Compare(f, b)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatComparison(rows))
	if n := bench.Regressions(rows); n > 0 {
		return fmt.Errorf("%d row(s) regress", n)
	}
	return nil
}
