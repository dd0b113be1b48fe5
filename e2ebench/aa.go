package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA measures the same binary as if it were two: n seeds of every
// workload, each seed run once for group A and once for group B, the
// groups taking turns to go first. It is the acceptance test the
// benchmark contract applies — ten runs per workload with different
// seeds, twice — and prints, per workload and end-to-end metric, both
// medians, how much worse B's is than A's, both quartile spreads and the
// bound. The contract refuses a benchmark in which a spread (setup_s
// excepted) or the A/B difference exceeds the bound: such a pair is marked
// NO and fails the check. A pair is marked wide when it passes that but a
// spread exceeds a third of the bound or the difference half of it — the
// margin the bounds were meant to leave.
func runAA(n int, baseSeed int64, seconds float64, boundsPath string, out io.Writer) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}

	type key struct{ group, workload, metric string }
	values := map[key][]float64{}
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)
		order := []string{"A", "B"}
		if i%2 == 1 {
			order = []string{"B", "A"}
		}
		for _, g := range order {
			for _, w := range workloads() {
				res, err := runChild(w.name, seed, seconds, 0, io.Discard)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d failed ops", w.name, seed, res.Failed)
				}
				for name, m := range res.Metrics {
					k := key{g, w.name, name}
					values[k] = append(values[k], m.Value)
				}
				fmt.Fprintf(out, "# group %s seed %d %s: %d ops, latency_p50_ms %.3f\n",
					g, seed, w.name, res.Attempted, res.Metrics["latency_p50_ms"].Value)
			}
		}
	}

	fmt.Fprintf(out, "\n| workload | metric | median A | median B | B worse by | spread A | spread B | bound | steady |\n")
	fmt.Fprintf(out, "|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	refused := 0
	for _, w := range workloads() {
		for _, d := range bf.EndToEnd {
			a, b := values[key{"A", w.name, d.Name}], values[key{"B", w.name, d.Name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			spread := max(sa, sb)
			if d.Name == "setup_s" {
				spread = 0 // exempt from the contract's spread rule
			}
			steady := "yes"
			switch {
			case worse > d.Bound || spread > d.Bound:
				steady = "NO"
				refused++
			case worse > d.Bound/2 || spread > d.Bound/3:
				steady = "wide"
			}
			fmt.Fprintf(out, "| %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, d.Name, ma, mb, worse*100, sa*100, sb*100, d.Bound*100, steady)
		}
	}
	if refused > 0 {
		return fmt.Errorf("%d workload × metric pairs exceed their bounds on identical code", refused)
	}
	return nil
}
