package core

import (
	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/window"
)

// LAWAN (Lineage-Aware Window Advancer, Negating) extends the WUO stream
// produced by LAWAU with the negating windows (paper, Section III-C,
// Fig. 4): for every group of overlapping windows that share the same r
// tuple, a negating window is created between every two consecutive event
// points — the starting and ending points of the matching s tuples — with
// λs the disjunction of the lineages of all s tuples active over the
// subinterval.
//
// The ending points and lineages of the active s tuples are kept in a
// priority queue ordered by ending point. Copies of the incoming windows
// and newly created negating windows alternate in the output, exactly as
// described in the paper. State per group is bounded by the maximal number
// of concurrently valid matching s tuples.
type lawan struct {
	sweepIO

	inGroup  bool
	rid      int
	rt       interval.Interval
	frLr     window.Window
	active   activeSet
	curStart interval.Time
}

// LAWAN returns the negating-window sweep over in. The input must be
// grouped by r tuple with overlapping windows sorted by starting point
// (the order LAWAU preserves from OverlapJoin).
func LAWAN(in Iterator) Iterator { return &lawan{sweepIO: sweepIO{in: in}} }

// NextBatch implements Iterator; see lawau.NextBatch.
func (l *lawan) NextBatch(buf []window.Window) int {
	n := l.out.popInto(buf)
	for n < len(buf) && !l.done {
		in := l.pull(len(buf))
		for i := range in {
			n = l.consume(&in[i], buf, n)
		}
		if l.done {
			n = l.flush(buf, n)
		}
	}
	return n
}

// consume folds one input window into the sweep state, emitting the
// windows it completes.
func (l *lawan) consume(w *window.Window, buf []window.Window, n int) int {
	if !l.inGroup || w.RID != l.rid {
		n = l.flush(buf, n)
		l.startGroup(w)
	}
	if w.Class() != window.Overlapping {
		// Unmatched windows need no negation; copy them through (Case 1).
		return l.emit(w, buf, n)
	}
	// Close the elementary intervals that end before this window starts
	// (Cases 2 and 3 of Fig. 4), then activate its s tuple.
	n = l.advance(w.T.Start, buf, n)
	n = l.emit(w, buf, n)
	if l.active.empty() {
		l.curStart = w.T.Start
	}
	l.active.push(w.T.End, w.Ls)
	return n
}

func (l *lawan) startGroup(w *window.Window) {
	l.inGroup = true
	l.rid = w.RID
	l.rt = w.RT
	l.frLr = *w
	l.active.reset()
}

// advance emits the negating windows of all elementary intervals that
// are completed at sweep position `to`.
func (l *lawan) advance(to interval.Time, buf []window.Window, n int) int {
	for !l.active.empty() {
		e := l.active.minEnd()
		if e > to {
			break
		}
		if l.curStart < e {
			n = l.emitNegating(l.curStart, e, buf, n)
		}
		for !l.active.empty() && l.active.minEnd() == e {
			l.active.pop()
		}
		l.curStart = e
	}
	if !l.active.empty() && l.curStart < to {
		n = l.emitNegating(l.curStart, to, buf, n)
		l.curStart = to
	}
	return n
}

// flush drains the remaining elementary intervals of the group being
// closed.
func (l *lawan) flush(buf []window.Window, n int) int {
	if !l.inGroup {
		return n
	}
	return l.advance(interval.MaxTime, buf, n)
}

func (l *lawan) emitNegating(start, end interval.Time, buf []window.Window, n int) int {
	// Single active s tuple (the common case): its lineage IS the
	// disjunction; skip lineage.Or's operand-slice allocation.
	var ls *lineage.Expr
	if len(l.active.lams) == 1 {
		ls = l.active.lams[0]
	} else {
		ls = lineage.Or(l.active.lineages()...)
	}
	w := window.Window{
		Fr:  l.frLr.Fr,
		T:   interval.Interval{Start: start, End: end},
		Lr:  l.frLr.Lr,
		Ls:  ls,
		RID: l.rid, RT: l.rt,
	}
	return l.emit(&w, buf, n)
}

// activeSet is the priority queue of the active s tuples: a min-heap on
// ending points plus the lineages in activation order (so that printed
// disjunctions follow the paper's reading order, e.g. b3 ∨ b2). The heap
// is hand-rolled rather than container/heap: the interface-based API
// boxes every pushed entry, which would cost one allocation per
// overlapping window.
type activeSet struct {
	ends endHeap
	lams []*lineage.Expr // activation order
	scr  []*lineage.Expr // scratch for lineages()
}

type endEntry struct {
	end interval.Time
	lam *lineage.Expr
}

type endHeap []endEntry

func (h endHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].end <= h[i].end {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h endHeap) siftDown(i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h[l].end < h[least].end {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].end < h[least].end {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (a *activeSet) reset() {
	a.ends = a.ends[:0]
	a.lams = a.lams[:0]
}

func (a *activeSet) empty() bool { return len(a.ends) == 0 }

func (a *activeSet) minEnd() interval.Time { return a.ends[0].end }

func (a *activeSet) push(end interval.Time, lam *lineage.Expr) {
	a.ends = append(a.ends, endEntry{end: end, lam: lam})
	a.ends.siftUp(len(a.ends) - 1)
	a.lams = append(a.lams, lam)
}

// pop removes the active tuple with the minimal ending point, both from
// the heap and from the activation-order list.
func (a *activeSet) pop() {
	e := a.ends[0]
	last := len(a.ends) - 1
	a.ends[0] = a.ends[last]
	a.ends = a.ends[:last]
	if last > 0 {
		a.ends.siftDown(0)
	}
	for i, lam := range a.lams {
		if lam == e.lam {
			a.lams = append(a.lams[:i], a.lams[i+1:]...)
			break
		}
	}
}

// lineages returns the active lineages in activation order. The returned
// slice is reused across calls; lineage.Or copies what it keeps.
func (a *activeSet) lineages() []*lineage.Expr {
	a.scr = a.scr[:0]
	a.scr = append(a.scr, a.lams...)
	return a.scr
}
