package core

import (
	"tpjoin/internal/window"
)

// This file is the window-pipeline side of EXPLAIN ANALYZE: a counting
// iterator that interposes between pipeline stages (OverlapJoin → LAWAU →
// LAWAN) and accounts windows and batch hops per stage. The counters are
// plain fields written by the single goroutine that owns the pipeline;
// nothing here runs unless instrumentation was explicitly requested, so
// the hot path of an uninstrumented join is untouched.

// StageStats accounts one window-pipeline stage under EXPLAIN ANALYZE:
// how many windows left the stage and in how many batch hops. The ratio
// Windows/Batches shows how full the transport runs.
type StageStats struct {
	// Name identifies the stage, e.g. "overlap", "lawau", "lawan"; the
	// mirrored phase of a full outer join appends "/mirror".
	Name string
	// Windows is the number of windows the stage emitted.
	Windows int64
	// Batches is the number of NextBatch calls that returned at least
	// one window.
	Batches int64
}

// JoinInstr collects the per-stage accounting of one instrumented NJ
// window pipeline. Stages appear in pipeline order (upstream first); a
// full outer join contributes the mirrored phase's stages after the
// forward phase's.
type JoinInstr struct {
	Stages []*StageStats
	// ProbBatches is how many probability batches the tail evaluated,
	// MemoHits how many sub-lineages it answered from the shared memo
	// instead of re-evaluating, and ShannonSteps how many Shannon
	// expansions it paid — zero unless a lineage repeats a base event
	// (a derived input joined with its own source again).
	ProbBatches  int64
	MemoHits     int64
	ShannonSteps int64
}

// stage wraps it with a counting iterator feeding a new StageStats named
// name+suffix; a nil JoinInstr leaves the stages directly connected.
func (ji *JoinInstr) stage(name, suffix string, it Iterator) Iterator {
	if ji == nil {
		return it
	}
	st := &StageStats{Name: name + suffix}
	ji.Stages = append(ji.Stages, st)
	return &countingIterator{it: it, st: st}
}

// countingIterator forwards NextBatch to the wrapped iterator, accounting
// emitted windows and batch hops.
type countingIterator struct {
	it Iterator
	st *StageStats
}

// NextBatch implements Iterator.
func (c *countingIterator) NextBatch(buf []window.Window) int {
	n := c.it.NextBatch(buf)
	if n > 0 {
		c.st.Windows += int64(n)
		c.st.Batches++
	}
	return n
}
