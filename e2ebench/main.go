// Command e2ebench is the repository's benchmark: it starts an in-process
// tpserverd on a loopback listener, drives it through internal/client in
// a closed loop with one session, checks every response against an
// in-process evaluation and prints the metrics BENCHMARK.json names, end
// to end or — with -trace 1 — layer by layer. README.md in this
// directory defines every workload and metric.
//
// cmd/tpbench and BENCH_1–5 remain the engine-only panels of the paper's
// figures; they are not part of this benchmark.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: webkit_wire, meteo_nj, meteo_ta, mixed_script, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 20, "how long the end-to-end measurement lasts")
		ops      = flag.Int("ops", 0, "run exactly this many timed ops instead of measuring for -seconds")
		trace    = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "where the traced run writes its spans (default .bench_build/trace_<workload>.json)")
		kernel   = flag.Bool("kernel", false, "serve reference-kernel samples on stdin/stdout (what the benchmark starts itself as)")
		aa       = flag.Int("aa", 0, "A/A check: run this many seeds of every workload twice, as two alternating groups, and compare them with the bounds in -bounds")
		bounds   = flag.String("bounds", "BENCHMARK.json", "the file -aa reads the regression bounds from")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	var err error
	switch {
	case *kernel:
		err = serveKernel(os.Stdin, os.Stdout)
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds, *bounds, os.Stdout)
	case *name == "all":
		for _, w := range workloads() {
			if _, err = runChild(w.name, *seed, *seconds, *trace, os.Stdout); err != nil {
				break
			}
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (see -help)", *name))
		}
		p := defaultParams(*seconds)
		p.ops = *ops
		if p.traceOut = *traceOut; p.traceOut == "" {
			p.traceOut = ".bench_build/trace_" + w.name + ".json"
		}
		var kp *kernelProc
		if kp, err = startKernel(); err != nil {
			break
		}
		p.kernel = kp.burst
		var res result
		res, err = run(w, *seed, p, *trace == 1, os.Stdout)
		if stopErr := kp.stop(); err == nil {
			err = stopErr
		}
		if err == nil {
			line, _ := json.Marshal(res) // a struct of numbers and strings marshals
			fmt.Printf("%s\n", line)
			if !res.Correct {
				err = fmt.Errorf("%d of %d ops returned a wrong result", res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// runChild runs one workload in a process of its own — peak RSS and the
// heap's history belong to a process — copies its report to out and
// returns its result line.
func runChild(workload string, seed int64, seconds float64, trace int, out io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}
