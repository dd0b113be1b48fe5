package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// e2eFile builds a File of three pairs from per-workload metric values:
// vals[workload][metric] holds the parent's three values, then the
// change's three; failed[workload] the change side's failed operations
// per pair. Every run attempts ten operations.
func e2eFile(t *testing.T, vals map[string]map[string][6]float64, failed map[string][3]int) File {
	t.Helper()
	var f File
	for w, metrics := range vals {
		for i, side := range sides {
			for pair := 0; pair < 3; pair++ {
				m := make(map[string]any)
				for name, v := range metrics {
					if v := v[3*i+pair]; v >= 0 { // a negative value: no such metric
						m[name] = map[string]any{"value": v, "unit": "x"}
					}
				}
				fails := 0
				if side == "change" {
					fails = failed[w][pair]
				}
				res, err := json.Marshal(map[string]any{"correct": fails == 0, "attempted": 10, "failed": fails, "metrics": m})
				if err != nil {
					t.Fatal(err)
				}
				f.E2E = append(f.E2E, E2E{Side: side, Pair: pair, Workload: w, Seed: 1, Result: res})
			}
		}
	}
	return f
}

const testBounds = `{
  "workloads": [{"name": "w"}, {"name": "none"}, {"name": "v"}, {"name": "x"}, {"name": "u"}, {"name": "z"}],
  "end_to_end": [
    {"name": "latency_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "rss_mb", "better": "lower", "bound": 0.07}
  ]
}`

// TestCompareArithmetic pins the median, quartile, Δ, pair count and
// verdict arithmetic of Compare on a hand-made three-pair file, and the
// regress count that sets tpbench -compare's exit status.
func TestCompareArithmetic(t *testing.T) {
	var b Bounds
	if err := json.Unmarshal([]byte(testBounds), &b); err != nil {
		t.Fatal(err)
	}
	f := e2eFile(t, map[string]map[string][6]float64{
		// latency: better in every pair by more than the parent IQR;
		// ops_per_s: the change median is 26 % lower, past the 25 %
		// bound; rss_mb: the change side has none, so no row.
		"w": {
			"latency_ms": {10, 12, 11, 8, 9, 8.5},
			"ops_per_s":  {100, 100, 100, 70, 120, 74},
			"rss_mb":     {5, 5, 5, -1, -1, -1},
		},
		// Within bounds, better in one pair of three.
		"v": {"latency_ms": {10, 10, 10, 10.5, 9.5, 10}},
		// Equal medians, but the change side failed an operation.
		"x": {"latency_ms": {5, 5, 5, 5, 5, 5}},
		// The parent IQR (10–14) is wider than the bound (25 % of 12):
		// unresolved, even with the change median 33 % worse…
		"u": {"latency_ms": {8, 16, 12, 15, 17, 16}},
		// …unless every change run beats every parent run.
		"z": {"latency_ms": {8, 16, 12, 5, 7, 6}},
	}, map[string][3]int{"x": {0, 0, 1}})

	rows, err := Compare(f, b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rows))
	for i, c := range rows {
		got[i] = fmt.Sprintf("%s %s p=%v c=%v Δ=%.3f %d/%d %s %v %v",
			c.Workload, c.Metric, c.Parent, c.Change, c.DeltaPct, c.Better, c.Pairs, c.Verdict, c.ParentOps, c.ChangeOps)
	}
	want := []string{
		"w latency_ms p={10.5 11 11.5} c={8.25 8.5 8.75} Δ=-22.727 3/3 gain {0 30} {0 30}",
		"w ops_per_s p={100 100 100} c={72 74 97} Δ=-26.000 1/3 regress {0 30} {0 30}",
		"v latency_ms p={10 10 10} c={9.75 10 10.25} Δ=0.000 1/3 inside bound {0 30} {0 30}",
		"x latency_ms p={5 5 5} c={5 5 5} Δ=0.000 0/3 regress {0 30} {1 30}",
		"u latency_ms p={10 12 14} c={15.5 16 16.5} Δ=33.333 0/3 unresolved {0 30} {0 30}",
		"z latency_ms p={10 12 14} c={5.5 6 6.5} Δ=-50.000 3/3 gain {0 30} {0 30}",
	}
	if n := Regressions(rows); n != 2 {
		t.Errorf("Regressions = %d, want 2 (w ops_per_s, x latency_ms)", n)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	table := FormatComparison(rows)
	const row = "| w | latency_ms | 11.00 [10.50–11.50] | 8.500 [8.250–8.750] | -22.73 | 3/3 | 25% | gain | 0/30 | 0/30 |"
	if !strings.Contains(table, row+"\n") {
		t.Fatalf("table lacks %q:\n%s", row, table)
	}
}

func TestCompareRejectsBadRecords(t *testing.T) {
	res := json.RawMessage(`{"attempted":1,"failed":0,"metrics":{}}`)
	for name, recs := range map[string][]E2E{
		"side":      {{Side: "base", Workload: "w", Result: res}},
		"duplicate": {{Side: "parent", Workload: "w", Result: res}, {Side: "parent", Workload: "w", Result: res}},
		"result":    {{Side: "change", Workload: "w", Result: json.RawMessage(`[]`)}},
	} {
		if _, err := Compare(File{E2E: recs}, Bounds{}); err == nil {
			t.Errorf("%s: Compare accepted %v", name, recs)
		}
	}
}
