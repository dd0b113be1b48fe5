package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	v := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {90, 46}, {100, 50}, {25, 20}} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if v[0] != 40 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are what Python prints for
// q = statistics.quantiles(v, n=4); (q[2] - q[0]) / statistics.median(v).
func TestQuartileSpread(t *testing.T) {
	ten := []float64{100, 104, 98, 101, 97, 103, 99, 102, 96, 105}
	if got, want := quartileSpread(ten), 5.5/100.5; !near(got, want) {
		t.Errorf("spread of ten = %v, want %v", got, want)
	}
	five := []float64{5, 1, 4, 2, 3}
	if got, want := quartileSpread(five), 3.0/3; !near(got, want) {
		t.Errorf("spread of five = %v, want %v", got, want)
	}
}

// A host that takes twice the reference time on both kernel parts runs at
// half speed: its times are halved to reach reference speed, its rates
// doubled. The two parts count geometrically, A with a quarter of the weight.
func TestHostSpeed(t *testing.T) {
	if got := hostSpeed(refA, refB); !near(got, 1) {
		t.Errorf("speed at reference = %v", got)
	}
	if got := hostSpeed(2*refA, 2*refB); !near(got, 0.5) {
		t.Errorf("speed of a host twice as slow = %v", got)
	}
	if got := hostSpeed(16*refA, refB); !near(got, 0.5) {
		t.Errorf("speed with part A sixteen times as slow = %v", got)
	}
	if got := hostSpeed(refA, 16*refB); !near(got, 0.125) {
		t.Errorf("speed with part B sixteen times as slow = %v", got)
	}
	h := &hostSampler{a: []float64{3 * refA, refA, 2 * refA}, b: []float64{2 * refB, 2 * refB, 2 * refB}}
	if got := h.speed(); !near(got, 0.5) {
		t.Errorf("speed from medians = %v", got)
	}
}

func TestDriftIgnoresJitterAndSeesPhases(t *testing.T) {
	jitter := &hostSampler{}
	phases := &hostSampler{}
	for i := 0; i < 8*driftBlock; i++ {
		j := 1 + 0.2*float64(i%2) // every other sample 20 % slow
		jitter.a, jitter.b = append(jitter.a, j), append(jitter.b, j)
		p := 1.0
		if i >= 4*driftBlock { // the second half of the run 20 % slow
			p = 1.2
		}
		phases.a, phases.b = append(phases.a, p), append(phases.b, p)
	}
	if d := jitter.drift(); !near(d, 0) {
		t.Errorf("drift under pure jitter = %v, want 0", d)
	}
	if d := phases.drift(); d < 0.15 {
		t.Errorf("drift across a 20 %% phase change = %v", d)
	}
	if d := (&hostSampler{a: []float64{1}, b: []float64{1}}).drift(); d != 0 {
		t.Errorf("drift of one sample = %v", d)
	}
}

// An episode that triples a third of the ops moves the whole-run mean and
// p90 but not the median block.
func TestPerBlockShrugsOffAnEpisode(t *testing.T) {
	calm := make([]float64, 160)
	for i := range calm {
		calm[i] = 100 + float64(i%10) // 100..109, p90 108.1, mean 104.5
	}
	episode := append([]float64(nil), calm...)
	for i := 40; i < 95; i++ {
		episode[i] *= 3
	}
	p90 := func(v []float64) float64 { return percentile(v, 90) }
	for name, f := range map[string]func([]float64) float64{"mean": mean, "median": median, "p90": p90} {
		if got, want := perBlock(episode, f), perBlock(calm, f); !near(got, want) {
			t.Errorf("%s per block: %v with the episode, %v without", name, got, want)
		}
	}
	if mean(episode) < 1.5*mean(calm) || p90(episode) < 2*p90(calm) {
		t.Error("the episode is too mild to test anything")
	}
	if got := perBlock([]float64{1, 3}, mean); !near(got, 2) {
		t.Errorf("two ops, two blocks: %v", got)
	}
}

func TestKernelIsFrozen(t *testing.T) {
	k := newKernel()
	for i := 0; i < 2; i++ {
		if got := k.runA() ^ k.runB(); got != kernelChecksum {
			t.Fatalf("kernel result %#x, want %#x: the reference kernel changed", got, uint64(kernelChecksum))
		}
	}
	seen := make([]bool, chaseLen)
	p := uint32(0)
	for i := 0; i < chaseLen; i++ {
		if seen[p] {
			t.Fatalf("the chase permutation has a cycle of length %d", i)
		}
		seen[p] = true
		p = k.perm[p]
	}
}

func TestKernelServer(t *testing.T) {
	var out bytes.Buffer
	if err := serveKernel(bytes.NewReader([]byte{1, 1}), &out); err != nil {
		t.Fatal(err)
	}
	var a, b float64
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("2 requests, %d answers: %q", len(lines), out.String())
	}
	for _, l := range lines {
		if _, err := fmt.Sscan(string(l), &a, &b); err != nil || a <= 0 || b <= 0 {
			t.Errorf("answer %q: %v", l, err)
		}
	}
}

// Hand-built tree:
//
//	1 root 10ms ── 2 child 4ms ── 4 grandchild 1ms
//	           └── 3 child 3ms
//	5 other root 2ms (op 2)
func TestSelfTimes(t *testing.T) {
	ms := func(id, parent, op int, name string, start, end float64) span {
		return span{ID: id, Parent: parent, Op: op, Name: name, StartUS: start * 1e3, EndUS: end * 1e3}
	}
	spans := []span{
		ms(1, 0, 1, "root", 0, 10),
		// Replayed children lie outside the parent's interval.
		ms(2, 1, 1, "child", 20, 24),
		ms(3, 1, 1, "child", 30, 33),
		ms(4, 2, 1, "grandchild", 40, 41),
		ms(5, 0, 2, "root", 50, 52),
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 3, 2: 3, 3: 3, 4: 1, 5: 2} {
		if !near(self[id], want) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := perOp(spans, "child", spanMS); !reflect.DeepEqual(got, []float64{7}) {
		t.Errorf("per-op child time = %v, want [7]", got)
	}
	if got := perOp(spans, "root", spanMS); !reflect.DeepEqual(got, []float64{10, 2}) {
		t.Errorf("per-op root time = %v, want [10 2]", got)
	}
}

func TestScriptsFollowTheSeed(t *testing.T) {
	for _, w := range workloads() {
		script := func(seed int64) []stmt {
			r, _ := w.gen(400, seed)
			s, layer := w.script(rand.New(rand.NewSource(seed)), r, "t")
			if layer == "" {
				t.Errorf("%s: no layer statement", w.name)
			}
			return s
		}
		if !reflect.DeepEqual(script(7), script(7)) {
			t.Errorf("%s: the same seed gave two scripts", w.name)
		}
		if w.name == "mixed_script" && reflect.DeepEqual(script(7), script(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same EXECUTE parameters", w.name)
		}
		r7, _ := w.gen(400, 7)
		r7b, _ := w.gen(400, 7)
		r8, _ := w.gen(400, 8)
		fixture := w.name == "mixed_script" // its relations are fixed, its parameters seeded
		if !reflect.DeepEqual(r7.Tuples, r7b.Tuples) || reflect.DeepEqual(r7.Tuples, r8.Tuples) != fixture {
			t.Errorf("%s: generated relations do not follow the seed", w.name)
		}
	}
}

// testKernel stands in for the kernel process: a host at reference speed.
func testKernel() (a, b []float64, err error) {
	for i := 0; i < burstLen; i++ {
		a, b = append(a, refA), append(b, refB)
	}
	return a, b, nil
}

func tinyParams(t *testing.T) params {
	return params{ops: 2, warmupOps: 1, setupReps: 2, tracedOps: 2, scalingFor: 1,
		traceOut: filepath.Join(t.TempDir(), "spans.json"), kernel: testKernel}
}

// The smoke run drives all four workloads, at tiny sizes, through the real
// server and client, the correctness gate included, end to end and traced.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		w.n = 400
		p := tinyParams(t)
		var report bytes.Buffer
		res, err := run(w, 1, p, false, &report)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, report.String())
		}
		if !res.Correct || res.Attempted != p.ops || res.Failed != 0 {
			t.Errorf("%s: %+v", w.name, res)
		}
		checkMetrics(t, w.name, res, endToEnd, true)

		res, err = run(w, 1, p, true, &report)
		if err != nil {
			t.Fatalf("%s traced: %v\n%s", w.name, err, report.String())
		}
		if !res.Correct || res.Attempted != 2*p.tracedOps {
			t.Errorf("%s traced: %+v", w.name, res)
		}
		checkMetrics(t, w.name+" traced", res, perLayer(), false)
		raw, err := os.ReadFile(p.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, s := range spans {
			names[s.Name] = true
		}
		for _, m := range spanMetrics {
			if !names[m.span] {
				t.Errorf("%s: no %s span in the trace", w.name, m.span)
			}
		}
	}
}

// checkMetrics requires exactly the named metrics, with their units and
// finite values — above 0 if positive is set, as the end-to-end ones must be.
func checkMetrics(t *testing.T, what string, res result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: no %s", what, d.name)
		case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v %s", what, d.name, m.Value, m.Unit)
		case positive && m.Value <= 0:
			t.Errorf("%s: %s = %v, want > 0", what, d.name, m.Value)
		}
	}
}

// The gate must notice a wrong row, a missing row and a server error.
func TestGateCatchesWrongResponses(t *testing.T) {
	w := findWorkload("meteo_nj")
	w.n = 400
	e, err := setUp(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	want, err := e.expectations()
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.sess.do()
	if err != nil {
		t.Fatal(err)
	}
	if !verify(e.sess.script, want, op.resps) {
		t.Fatal("the gate rejects a correct response")
	}
	if op.ttfb <= 0 || op.ttfb > op.lat || op.bytes <= 0 {
		t.Errorf("lat %v ttfb %v bytes %d", op.lat, op.ttfb, op.bytes)
	}
	resp := op.resps[0]
	if len(resp.Rows) == 0 {
		t.Fatal("the tiny meteo join returned no rows to tamper with")
	}
	resp.Rows[0].Prob += 0.25
	if verify(e.sess.script, want, op.resps) {
		t.Error("the gate accepts a changed probability")
	}
	resp.Rows[0].Prob -= 0.25
	resp.Rows = resp.Rows[1:]
	if verify(e.sess.script, want, op.resps) {
		t.Error("the gate accepts a missing row")
	}
	resp.Error = "boom"
	if verify(e.sess.script, want, op.resps) || verify(e.sess.script, want, nil) {
		t.Error("the gate accepts an error or a missing response")
	}
}

// BENCHMARK.json must name exactly what the driver prints.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
		RunSeconds int     `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d entries, the code has %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, the code has %+v", what, i, g, d)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer())
	for _, e := range bf.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads, the code has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, the code has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.Paths, []string{"e2ebench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}
