package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"time"
)

// The reference kernel is the benchmark's yardstick for how fast the host
// is right now. This sandbox drifts between fast and slow phases lasting
// minutes in which wall time and CPU time stretch together, so no median
// taken inside one run removes the drift; timing a fixed piece of work
// beside the ops and dividing by it does. The kernel is FROZEN: a change
// to it silently rescales every time-valued metric, so any edit needs a
// fresh baseline (see README.md, "Noise model").
//
// Part A is allocation-free (memory latency, integer ALU, branchy sort);
// part B is allocation-heavy (allocator, map growth, GC pressure). The
// engine's cost is a mix of both with the allocator in front: over five
// sets of ten runs, weighting the parts 1:3 tracked op time better than
// either part alone and than equal weights (README.md, "Noise model").

const (
	chaseLen   = 1 << 18 // uint32 entries: a 1 MiB single-cycle permutation
	mixSteps   = 1 << 20
	sortLen    = 1 << 14
	listNodes  = 40_000
	mapEntries = 16_384

	// refA and refB are the kernel part times, in seconds, that define
	// host.speed = 1: the medians measured on the host the benchmark was
	// written on. They only fix the unit of the normalised times.
	refA = 6.5e-3
	refB = 5.2e-3

	// weightA is part A's share in the weighted geometric mean of the two
	// parts' speeds.
	weightA = 0.25

	// kernelChecksum is what runA() ^ runB() must return on every host;
	// the test pins it so the frozen kernel cannot change unnoticed.
	kernelChecksum = 0x1d6cf40e07de9a59

	// One sample is one execution of each part, about 12 ms. The host's
	// speed also jitters within a second (a single sample is only good to
	// ±10 %, and samples taken together err together), so the yardstick is
	// the median of a hundred or more samples spread evenly between the
	// ops: every sampleEvery one burst of burstLen samples, after one
	// execution that is thrown away. That one gives the collector time to
	// finish the cycle the last op started and refills the caches the op
	// emptied; both would slow the kernel down by an amount that depends
	// on the program under test and not on the host.
	sampleEvery = 300 * time.Millisecond
	burstLen    = 2
)

type kernel struct {
	perm    []uint32
	sortSrc []uint64
	sortBuf []uint64
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

func newKernel() *kernel {
	k := &kernel{
		perm:    make([]uint32, chaseLen),
		sortSrc: make([]uint64, sortLen),
		sortBuf: make([]uint64, sortLen),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.perm {
		k.perm[i] = uint32(i)
	}
	// Sattolo's shuffle: the permutation is one cycle, so the chase visits
	// every entry and cannot settle into a short cached loop.
	for i := chaseLen - 1; i > 0; i-- {
		j := xorshift(&x) % uint64(i)
		k.perm[i], k.perm[j] = k.perm[j], k.perm[i]
	}
	for i := range k.sortSrc {
		k.sortSrc[i] = xorshift(&x)
	}
	return k
}

// runA is the allocation-free part.
func (k *kernel) runA() uint64 {
	p := uint32(0)
	for i := 0; i < chaseLen; i++ {
		p = k.perm[p]
	}
	h := uint64(0x2545F4914F6CDD1D)
	for i := uint64(0); i < mixSteps; i++ {
		h = (h ^ i) * 0x100000001B3
		h ^= h >> 29
	}
	copy(k.sortBuf, k.sortSrc)
	slices.Sort(k.sortBuf)
	return uint64(p) ^ h ^ k.sortBuf[sortLen/2]
}

type listNode struct {
	next *listNode
	key  uint64
	pad  [2]uint64
}

// runB is the allocation-heavy part.
func (k *kernel) runB() uint64 {
	x := uint64(0xD1B54A32D192ED03)
	var head *listNode
	for i := 0; i < listNodes; i++ {
		head = &listNode{next: head, key: xorshift(&x)}
	}
	m := make(map[uint64]int)
	var keys []string
	n := head
	for i := 0; i < mapEntries; i++ {
		m[n.key] = i
		if i%8 == 0 {
			keys = append(keys, strconv.FormatUint(n.key, 10))
		}
		n = n.next
	}
	sort.Strings(keys)
	var sum uint64
	for n := head; n != nil; n = n.next {
		sum += n.key ^ uint64(m[n.key])
	}
	for _, s := range keys[:16] {
		sum = sum*31 + uint64(len(s)) + uint64(s[len(s)-1])
	}
	return sum
}

// serveKernel is the kernel process: for every byte it reads it runs both
// parts once and answers with their times in seconds. The kernel has a
// process of its own so that its allocator and collector see the same
// small heap whatever the program under test keeps alive — in the
// benchmark's process, part B would run faster or slower with the size
// of the server's heap, and a change to the server would move the
// yardstick it is measured with.
func serveKernel(in io.Reader, out io.Writer) error {
	k := newKernel()
	var sink uint64
	req := make([]byte, 1)
	for {
		if _, err := io.ReadFull(in, req); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		a := timeOf(k.runA, &sink)
		b := timeOf(k.runB, &sink)
		if _, err := fmt.Fprintf(out, "%g %g\n", a, b); err != nil {
			return err
		}
	}
}

func timeOf(f func() uint64, sink *uint64) float64 {
	t0 := time.Now()
	*sink ^= f()
	return time.Since(t0).Seconds()
}

// kernelProc is the parent's handle on a kernel process.
type kernelProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startKernel starts this executable again as a kernel process.
func startKernel() (*kernelProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-kernel")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &kernelProc{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// burst takes burstLen samples after one that it throws away.
func (p *kernelProc) burst() (a, b []float64, err error) {
	for i := 0; i <= burstLen; i++ {
		var ai, bi float64
		if _, err := p.in.Write([]byte{1}); err != nil {
			return nil, nil, fmt.Errorf("kernel process: %w", err)
		}
		if _, err := fmt.Fscanf(p.out, "%g %g\n", &ai, &bi); err != nil {
			return nil, nil, fmt.Errorf("kernel process: %w", err)
		}
		if i > 0 {
			a, b = append(a, ai), append(b, bi)
		}
	}
	return a, b, nil
}

// stop ends the kernel process and waits for it.
func (p *kernelProc) stop() error {
	p.in.Close()
	return p.cmd.Wait()
}

// hostSampler collects kernel samples beside the measured work.
type hostSampler struct {
	burst func() (a, b []float64, err error)
	a, b  []float64 // seconds per sample
	last  time.Time
	err   error // the first failed burst; checked once, when the run ends
}

// sample takes one burst of kernel samples. Callers keep it outside every
// timed or metered section.
func (h *hostSampler) sample() {
	a, b, err := h.burst()
	if err != nil {
		if h.err == nil {
			h.err = err
		}
		return
	}
	h.a, h.b = append(h.a, a...), append(h.b, b...)
	h.last = time.Now()
}

func (h *hostSampler) due() bool { return time.Since(h.last) >= sampleEvery }

// speed is how fast the host ran during this process relative to the
// reference host: > 1 means faster. A time measured here is brought to
// reference speed by multiplying with it, a rate by dividing.
func (h *hostSampler) speed() float64 {
	return hostSpeed(median(h.a), median(h.b))
}

func hostSpeed(a, b float64) float64 {
	return math.Pow(refA/a, weightA) * math.Pow(refB/b, 1-weightA)
}

// driftBlock is how many consecutive samples (a good second of run) form
// one block of the drift estimate.
const driftBlock = 8

// drift is (p90 − p10) / p50 of the host's slowness (1/speed) per block:
// how much the host's speed moved while this process ran, with the
// millisecond jitter of single samples taken out. 0 below two blocks.
func (h *hostSampler) drift() float64 {
	var blocks []float64
	for i := 0; i+driftBlock <= len(h.a); i += driftBlock {
		blocks = append(blocks, 1/hostSpeed(median(h.a[i:i+driftBlock]), median(h.b[i:i+driftBlock])))
	}
	if len(blocks) < 2 {
		return 0
	}
	return (percentile(blocks, 90) - percentile(blocks, 10)) / percentile(blocks, 50)
}
