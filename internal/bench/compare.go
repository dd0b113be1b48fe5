package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// This file is the comparison side of the repo benchmark (BENCHMARK.json,
// e2ebench/): the end-to-end results of alternating parent/change runs,
// kept in a BENCH_<n>.json's e2e list (scripts/e2e-pairs.sh writes it),
// summarized per workload × end-to-end metric against the regression
// bounds BENCHMARK.json declares.

// E2E is one end-to-end benchmark result: the side of the comparison that
// produced it ("parent" or "change"), the pair it belongs to, the
// workload and seed it ran, and the result object the benchmark printed
// last for that workload, kept verbatim.
type E2E struct {
	Side     string          `json:"side"`
	Pair     int             `json:"pair"`
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Result   json.RawMessage `json:"result"`
}

// e2eResult is the part of a result object the comparison reads.
type e2eResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// Bounds is the part of BENCHMARK.json the comparison reads: the
// workloads in report order and the end-to-end metrics, each with the
// direction that is better and the relative bound a regression of its
// median may not exceed.
type Bounds struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"` // "lower" or "higher"
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Quartiles summarizes one side's runs of a metric; quantiles interpolate
// linearly between the closest ranks.
type Quartiles struct {
	Q1, Median, Q3 float64
}

func quartiles(v []float64) Quartiles {
	s := slices.Sorted(slices.Values(v))
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return Quartiles{q(0.25), q(0.5), q(0.75)}
}

// Ops counts one side's operations of a workload over all its runs.
type Ops struct {
	Failed, Attempted int
}

func (o Ops) share() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// Comparison is one workload × end-to-end metric row.
type Comparison struct {
	Workload, Metric string
	Parent, Change   Quartiles
	// DeltaPct is the change median's distance from the parent median,
	// in percent of the parent median.
	DeltaPct float64
	// Better counts the pairs in which the change run beat the parent
	// run; Pairs is the number of pairs with both runs.
	Better, Pairs int
	Bound         float64
	// Verdict is "regress" when the change median is worse than the
	// parent median by more than Bound or a larger share of the change
	// side's operations failed, "gain" when the change is better in at
	// least nine of ten pairs and its median beats the parent median by
	// more than the parent's interquartile range, and "inside bound"
	// otherwise.
	Verdict              string
	ParentOps, ChangeOps Ops
}

// sides names the two sides of a comparison, in index order.
var sides = [2]string{"parent", "change"}

// Compare summarizes f's e2e results against b, one row per workload ×
// end-to-end metric in b's order; a metric or workload without results
// on both sides has no row.
func Compare(f File, b Bounds) ([]Comparison, error) {
	// runs[workload][side][pair]
	runs := make(map[string][2]map[int]e2eResult)
	for _, e := range f.E2E {
		side := slices.Index(sides[:], e.Side)
		if side < 0 {
			return nil, fmt.Errorf("bench: e2e record of pair %d has side %q, want parent or change", e.Pair, e.Side)
		}
		var r e2eResult
		if err := json.Unmarshal(e.Result, &r); err != nil {
			return nil, fmt.Errorf("bench: e2e %s pair %d %s: %w", e.Side, e.Pair, e.Workload, err)
		}
		w := runs[e.Workload]
		if w[side] == nil {
			w[side] = make(map[int]e2eResult)
			runs[e.Workload] = w
		}
		if _, dup := w[side][e.Pair]; dup {
			return nil, fmt.Errorf("bench: e2e %s pair %d %s appears twice", e.Side, e.Pair, e.Workload)
		}
		w[side][e.Pair] = r
	}
	var rows []Comparison
	for _, wl := range b.Workloads {
		w := runs[wl.Name]
		var ops [2]Ops
		for side := range w {
			for _, r := range w[side] {
				ops[side].Failed += r.Failed
				ops[side].Attempted += r.Attempted
			}
		}
		for _, m := range b.EndToEnd {
			var vals [2][]float64
			for side := range w {
				for _, r := range w[side] {
					if v, ok := r.Metrics[m.Name]; ok {
						vals[side] = append(vals[side], v.Value)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			sign := 1.0 // > 0 when the change is worse
			if m.Better == "higher" {
				sign = -1
			}
			c := Comparison{
				Workload: wl.Name, Metric: m.Name, Bound: m.Bound,
				Parent: quartiles(vals[0]), Change: quartiles(vals[1]),
				ParentOps: ops[0], ChangeOps: ops[1],
			}
			for pair, pr := range w[0] {
				pv, ok := pr.Metrics[m.Name]
				cv, ok2 := w[1][pair].Metrics[m.Name]
				if ok && ok2 {
					c.Pairs++
					if sign*(cv.Value-pv.Value) < 0 {
						c.Better++
					}
				}
			}
			diff := c.Change.Median - c.Parent.Median
			if c.Parent.Median != 0 {
				c.DeltaPct = 100 * diff / c.Parent.Median
			}
			switch {
			case sign*diff > m.Bound*math.Abs(c.Parent.Median) || ops[1].share() > ops[0].share():
				c.Verdict = "regress"
			case c.Pairs > 0 && 10*c.Better >= 9*c.Pairs && -sign*diff > c.Parent.Q3-c.Parent.Q1:
				c.Verdict = "gain"
			default:
				c.Verdict = "inside bound"
			}
			rows = append(rows, c)
		}
	}
	return rows, nil
}

// FormatComparison renders rows as a Markdown table.
func FormatComparison(rows []Comparison) string {
	var b strings.Builder
	b.WriteString("| workload | metric | parent median [q1–q3] | change median [q1–q3] | Δ % | change better | bound | verdict | parent failed/attempted | change failed/attempted |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	q := func(v Quartiles) string {
		return fmt.Sprintf("%s [%s–%s]", num(v.Median), num(v.Q1), num(v.Q3))
	}
	for _, c := range rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %+.2f | %d/%d | %.0f%% | %s | %d/%d | %d/%d |\n",
			c.Workload, c.Metric, q(c.Parent), q(c.Change), c.DeltaPct, c.Better, c.Pairs,
			100*c.Bound, c.Verdict, c.ParentOps.Failed, c.ParentOps.Attempted, c.ChangeOps.Failed, c.ChangeOps.Attempted)
	}
	return b.String()
}

// num prints a metric value with about four significant digits and no
// exponent.
func num(v float64) string {
	switch a := math.Abs(v); {
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
