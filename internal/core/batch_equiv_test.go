package core

import (
	"fmt"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/dataset"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// These tests pin the one property the window transport promises: the
// window sequence a pipeline yields does not depend on the buffer sizes
// it is pulled through. A 1-slot buffer is the degenerate case — every
// multi-window burst takes a stage's overflow queue — and reproduces what
// the per-window cursor this transport replaced computed; what the
// windows must *be* is checked independently against window/spec.go
// (core_test.go, theta_test.go) and tp.RefJoin.

func equivInputs(t *testing.T) []struct {
	name  string
	r, s  *tp.Relation
	theta tp.EquiTheta
} {
	t.Helper()
	wr, ws := dataset.Webkit(3000, 7)
	mr, ms := dataset.Meteo(1200, 7)
	return []struct {
		name  string
		r, s  *tp.Relation
		theta tp.EquiTheta
	}{
		{"webkit", wr, ws, dataset.WebkitTheta()},
		{"meteo", mr, ms, dataset.MeteoTheta()},
	}
}

// renderTuples gives the byte-exact comparison key of a result.
func renderTuples(rel *tp.Relation) []string {
	out := make([]string, rel.Len())
	for i, tu := range rel.Tuples {
		out[i] = tu.String()
	}
	return out
}

var equivOps = []tp.Op{tp.OpInner, tp.OpLeft, tp.OpFull, tp.OpAnti}

// TestBatchScalarEquivalenceTA: the TA baseline has a single (blocking)
// code path; pin its run-to-run determinism so the three strategies stay
// comparable byte-for-byte across the equivalence suite.
func TestBatchScalarEquivalenceTA(t *testing.T) {
	for _, in := range equivInputs(t) {
		for _, op := range equivOps {
			a := renderTuples(align.Join(op, in.r, in.s, in.theta, align.Config{}))
			b := renderTuples(align.Join(op, in.r, in.s, in.theta, align.Config{}))
			if len(a) != len(b) {
				t.Fatalf("%s %v: TA nondeterministic sizes", in.name, op)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s %v: TA tuple %d differs between runs", in.name, op, i)
				}
			}
		}
	}
}

// rebuffered caps the buffer its input is pulled through at size slots,
// whatever buffer its own consumer passes, so the stage downstream of it
// sees its input arrive at most size windows at a time.
type rebuffered struct {
	in   Iterator
	size int
}

func (r rebuffered) NextBatch(buf []window.Window) int {
	return r.in.NextBatch(buf[:min(r.size, len(buf))])
}

// bufferSizes lie below, off and above BatchSize.
var bufferSizes = []int{1, 2, 3, 7, 17, 1000}

// drainThrough materializes it by pulling through a size-slot buffer.
func drainThrough(it Iterator, size int) []window.Window {
	buf := make([]window.Window, size)
	var out []window.Window
	for {
		n := it.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// stagePipeline builds the window pipeline up to its first (overlap
// join), second (LAWAU) or third (LAWAN) stage, with hop interposed after
// every stage.
func stagePipeline(r, s *tp.Relation, theta tp.Theta, sweeps int, hop func(Iterator) Iterator) Iterator {
	it := hop(OverlapJoin(r, s, theta))
	if sweeps > 0 {
		it = hop(LAWAU(it))
	}
	if sweeps > 1 {
		it = hop(LAWAN(it))
	}
	return it
}

func requireSameWindows(t *testing.T, label string, got, want []window.Window) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: window %d differs:\n got:  %v\n want: %v", label, i, got[i], want[i])
		}
	}
}

// TestWindowBatchEquivalence pins buffer-size invariance stage by stage:
// OverlapJoin, LAWAU∘OverlapJoin and LAWAN∘LAWAU∘OverlapJoin yield the
// window sequence Drain yields when the consumer and every hop between
// stages move at most 1, 2, 3, 7, 17 or 1000 windows at a time (a stage
// sizes its own input buffer like its consumer's, so every hop is that
// size).
func TestWindowBatchEquivalence(t *testing.T) {
	plain := func(it Iterator) Iterator { return it }
	for _, in := range equivInputs(t) {
		for sweeps, name := range []string{"overlap", "wuo", "wuon"} {
			want := Drain(stagePipeline(in.r, in.s, in.theta, sweeps, plain))
			for _, size := range bufferSizes {
				hop := func(it Iterator) Iterator { return rebuffered{in: it, size: size} }
				got := drainThrough(stagePipeline(in.r, in.s, in.theta, sweeps, hop), size)
				requireSameWindows(t, fmt.Sprintf("%s/%s/size %d", in.name, name, size), got, want)
			}
		}
	}
}

// TestRelCacheInvalidatesOnSort pins the derived-structure memo's
// staleness detection: re-sorting a relation through tp.Relation's
// methods (which move its Stamp) must rebuild the memoized key
// dictionary instead of serving stale tuple indexes.
func TestRelCacheInvalidatesOnSort(t *testing.T) {
	r, s := dataset.Webkit(800, 13)
	theta := dataset.WebkitTheta()
	before := Drain(LAWAU(OverlapJoin(r, s, theta))) // populates s's memo

	s.SortByStart() // same length, new tuple order: Stamp move must invalidate
	after := Drain(LAWAU(OverlapJoin(r, s, theta)))

	// The window multiset is order-insensitive except for RID/RT, which
	// track r (untouched); s's reordering must not change the result set.
	if len(before) != len(after) {
		t.Fatalf("window count changed after build-side re-sort: %d vs %d", len(before), len(after))
	}
	window.Sort(before)
	window.Sort(after)
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatalf("window %d differs after build-side re-sort (stale cache?)", i)
		}
	}
}
