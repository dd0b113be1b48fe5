package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one metric of the benchmark; BENCHMARK.json lists the
// same names, units and directions (a test compares the two).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a client of tpserverd sees, the same ten names on every
// workload. Times are at reference host speed (see kernel.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"ttfb_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// params sizes one run. The zero value of ops means "measure for seconds".
type params struct {
	seconds    float64
	ops        int // > 0: exactly this many timed ops, whatever time they take
	warmupOps  int
	setupReps  int
	tracedOps  int
	scalingFor time.Duration
	traceOut   string
	// kernel takes one burst of reference-kernel samples (see kernel.go).
	kernel func() (a, b []float64, err error)
}

func defaultParams(seconds float64) params {
	return params{
		seconds: seconds,
		// The warm-up fills the stats, key-table, endpoint-index and plan
		// caches and lets the heap reach its working size.
		warmupOps: 15,
		// A single set-up lasts 1–3 s; the median of three keeps one
		// unlucky set-up from deciding setup_s.
		setupReps:  3,
		tracedOps:  20,
		scalingFor: 1500 * time.Millisecond,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run sets the workload up, checks it against the in-process gate and
// measures it: end to end, or layer by layer when traced. The report goes
// to out, one metric per line by name and unit.
func run(w *workload, seed int64, p params, traced bool, out io.Writer) (result, error) {
	// Set-up and measurement are minutes of host drift apart in the worst
	// case, so each is normalised by the kernel samples taken during it.
	setupHost, host := &hostSampler{burst: p.kernel}, &hostSampler{burst: p.kernel}
	reps := p.setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	var e *env
	var setups, gens, regs []float64
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			e.close()
		}
		// The set-up clock stops while the kernel is sampled.
		var took time.Duration
		clocked := func(f func() error) error {
			if took == 0 || setupHost.due() {
				setupHost.sample()
			}
			t0 := time.Now()
			err := f()
			took += time.Since(t0)
			return err
		}
		err := clocked(func() (err error) {
			e, err = setUp(w, seed)
			return err
		})
		if err != nil {
			return result{}, err
		}
		for i := 0; i < p.warmupOps; i++ {
			err := clocked(func() error {
				_, err := e.sess.do()
				return err
			})
			if err != nil {
				e.close()
				return result{}, fmt.Errorf("warm-up: %w", err)
			}
		}
		_ = clocked(func() error { runtime.GC(); return nil })
		setups = append(setups, took.Seconds())
		gens = append(gens, e.genDur.Seconds())
		regs = append(regs, e.regDur.Seconds())
	}
	defer e.close()

	want, err := e.expectations()
	if err != nil {
		return result{}, fmt.Errorf("correctness gate: %w", err)
	}
	for i, st := range e.sess.script {
		rowsStmt := strings.HasPrefix(st.text, "SELECT") || strings.HasPrefix(st.text, "EXECUTE")
		if w.wantRows && rowsStmt && want[i].rows == 0 {
			return result{}, fmt.Errorf("correctness gate: %q returns no rows", st.text)
		}
	}

	fmt.Fprintf(out, "# e2ebench workload=%s seed=%d statements/op=%d warm-up=%d set-ups=%d\n",
		w.name, seed, len(e.sess.script), p.warmupOps, reps)
	fmt.Fprintf(out, "# %s nproc=%d GOMAXPROCS=%d GOGC=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), envOr("GOGC", "100 (default)"))
	fmt.Fprintf(out, "# reference output: %v\n", digest(want))

	var res result
	if traced {
		res, err = runTraced(e, want, host, p, median(gens), median(regs), out)
	} else {
		res, err = runTimed(e, want, host, p, median(setups)*setupHost.speed(), median(setups), out)
	}
	if err == nil {
		err = cmp.Or(setupHost.err, host.err)
	}
	if err != nil {
		return result{}, err
	}
	drift := host.drift()
	fmt.Fprintf(out, "# host.speed=%.4f host.drift=%.4f noisy=%t kernel A=%.3fms B=%.3fms samples=%d\n",
		host.speed(), drift, drift > 0.25, median(host.a)*1e3, median(host.b)*1e3, len(host.a))
	fmt.Fprintf(out, "# during set-up: host.speed=%.4f kernel A=%.3fms B=%.3fms samples=%d\n",
		setupHost.speed(), median(setupHost.a)*1e3, median(setupHost.b)*1e3, len(setupHost.a))
	res.Correct = res.Failed == 0
	return res, nil
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// runTimed is the end-to-end measurement: one session, closed loop (the
// next op is sent when the previous one has been answered and checked),
// tracing off.
func runTimed(e *env, want []expectation, host *hostSampler, p params, setup, setupRaw float64, out io.Writer) (result, error) {
	var (
		m              meter
		lat, ttfb, cpu []float64 // ms per op
		wire           int64
		failed         int
	)
	// peak_rss_mb is the high-water mark of the measured ops, not of the
	// set-ups and the gate before them: hand their garbage back and start
	// the mark afresh. Where the kernel does not allow the reset, the mark
	// of the whole process is reported.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	host.sample()
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	more := func(n int) bool {
		if p.ops > 0 {
			return n < p.ops
		}
		return time.Now().Before(deadline)
	}
	for n := 0; more(n); n++ {
		if host.due() {
			host.sample()
		}
		m.start()
		op, err := e.sess.do()
		opCPU := m.stop()
		if err != nil {
			return result{}, err
		}
		if !verify(e.sess.script, want, op.resps) {
			failed++
		}
		lat = append(lat, op.lat.Seconds()*1e3)
		ttfb = append(ttfb, op.ttfb.Seconds()*1e3)
		cpu = append(cpu, opCPU.Seconds()*1e3)
		wire += op.bytes
	}
	host.sample()

	ops := float64(len(lat))
	speed := host.speed()
	res := result{Attempted: len(lat), Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "# timed ops=%d failed=%d time inside ops=%.2fs\n", len(lat), failed, sum(lat)/1e3)
	// Times are reported at reference speed: what this run would have
	// measured on a host on which the kernel takes refA and refB.
	report := func(name string, raw, value float64) {
		for _, d := range endToEnd {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: value, Unit: d.unit}
				fmt.Fprintf(out, "%-20s %14.4f %-5s (raw %.4f)\n", name, value, d.unit, raw)
				return
			}
		}
		panic("unknown end-to-end metric " + name)
	}
	timeAt := func(name string, raw float64) { report(name, raw, raw*speed) }
	exact := func(name string, v float64) { report(name, v, v) }

	report("setup_s", setupRaw, setup)
	timeAt("latency_p50_ms", perBlock(lat, median))
	timeAt("latency_p90_ms", perBlock(lat, func(v []float64) float64 { return percentile(v, 90) }))
	timeAt("ttfb_p50_ms", perBlock(ttfb, median))
	rate := 1e3 / perBlock(lat, mean)
	report("ops_per_s", rate, rate/speed)
	timeAt("cpu_ms_per_op", perBlock(cpu, mean))
	exact("allocs_per_op", float64(m.allocs)/ops)
	exact("alloc_mb_per_op", float64(m.bytes)/1e6/ops)
	exact("wire_bytes_per_op", float64(wire)/ops)
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}
	exact("peak_rss_mb", rss)
	return res, nil
}

// timeBlocks is how many blocks of consecutive ops the time metrics are
// taken over: few enough that a block of a join workload still has a dozen
// ops for its p90, many enough that three bad blocks do not move the median.
const timeBlocks = 8

// perBlock cuts v, one value per op in op order, into timeBlocks blocks of
// consecutive ops and returns the median of f over the blocks. The host
// has episodes, tens of seconds long, in which a third of the ops take
// several times as long; a mean or a p90 over the whole run reports the
// episode, not the program, so every time metric goes through here.
func perBlock(v []float64, f func(block []float64) float64) float64 {
	k := min(timeBlocks, len(v))
	vals := make([]float64, k)
	for b := range vals {
		vals[b] = f(v[b*len(v)/k : (b+1)*len(v)/k])
	}
	return median(vals)
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// peakRSS is the process's resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1e3, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}
