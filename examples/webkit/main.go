// Webkit runs the paper's file-history workload: two relations of
// predictions that a file remains unchanged over an interval (many
// distinct files, skewed revision durations), joined on the file. It
// first verifies on a small instance that NJ and TA produce point-wise
// identical results, then times both at a larger size — a miniature of
// the paper's Fig. 5/Fig. 7 experiment.
package main

import (
	"fmt"
	"time"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/tp"
)

func main() {
	theta := dataset.WebkitTheta()

	// 1. Correctness: NJ ≡ TA point-wise on a small instance.
	r0, s0 := dataset.Webkit(600, 7)
	njPM, err := tp.Expand(core.Join(tp.OpLeft, r0, s0, theta))
	check(err)
	taPM, err := tp.Expand(align.Join(tp.OpLeft, r0, s0, theta, align.Config{}))
	check(err)
	check(njPM.EqualProb(taPM, 1e-9))
	fmt.Println("NJ and TA agree point-wise on a 600-tuple instance ✓")

	// 2. Performance at scale.
	const n = 40000
	r, s := dataset.Webkit(n, 7)
	fmt.Printf("\nwebkit workload: %d + %d tuples, join on file\n", r.Len(), s.Len())

	t0 := time.Now()
	nj := core.Join(tp.OpLeft, r, s, theta)
	njDur := time.Since(t0)
	fmt.Printf("NJ  (lineage-aware windows): %8.1f ms, %d result tuples\n",
		float64(njDur)/1e6, nj.Len())

	t0 = time.Now()
	ta := align.Join(tp.OpLeft, r, s, theta, align.Config{})
	taDur := time.Since(t0)
	fmt.Printf("TA  (temporal alignment):    %8.1f ms, %d result tuples\n",
		float64(taDur)/1e6, ta.Len())
	fmt.Printf("speedup TA/NJ: %.1f×\n", float64(taDur)/float64(njDur))

	fmt.Println("\nsample result tuples:")
	for i, t := range nj.Tuples {
		if i == 5 {
			break
		}
		fmt.Printf("  %v\n", t)
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
