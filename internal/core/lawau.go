package core

import (
	"tpjoin/internal/interval"
	"tpjoin/internal/window"
)

// LAWAU (Lineage-Aware Window Advancer, Unmatched) extends the output of
// the overlap join with the remaining unmatched windows: the maximal
// subintervals of each r tuple's validity interval during which no tuple
// of s is valid or satisfies θ (paper, Section III-B, Fig. 3).
//
// The input stream must be grouped by r tuple (Window.RID) with each
// group's overlapping windows sorted by starting point — exactly the order
// OverlapJoin produces. LAWAU performs a single sweep over each group:
// it copies every input window to the output and, tracking the maximal
// covered end point, emits an unmatched window for every gap between
// consecutive overlapping windows as well as for the uncovered head and
// tail of the tuple's interval. Windows stream through with O(1) state per
// group; no tuple is replicated.
type lawau struct {
	sweepIO

	inGroup bool
	rid     int
	rt      interval.Interval
	frLr    window.Window // carries Fr/Lr of the current group for gap windows
	maxEnd  interval.Time
	sawBase bool // group consists of a base unmatched window (no matches at all)
}

// LAWAU returns the unmatched-window sweep over in. See the package
// documentation for the required input order.
func LAWAU(in Iterator) Iterator { return &lawau{sweepIO: sweepIO{in: in}} }

// sweepIO is the window transport LAWAU and LAWAN share: input arrives in
// batches through a buffer the stage owns, sized on the first pull like
// its consumer's, so every hop of a pipeline moves as many windows as its
// tail asks for; output is written straight into the consumer's buffer
// with the overflow queue behind it.
type sweepIO struct {
	in    Iterator
	out   queue
	inBuf []window.Window
	done  bool
}

// pull returns the next input batch, or nil — marking the stage done and
// dropping its buffer — once the input is exhausted. size is the length of
// the consumer's buffer; the first pull allocates that many windows.
func (s *sweepIO) pull(size int) []window.Window {
	if s.inBuf == nil {
		s.inBuf = make([]window.Window, size)
	}
	if n := s.in.NextBatch(s.inBuf); n > 0 {
		return s.inBuf[:n]
	}
	s.inBuf = nil
	s.done = true
	return nil
}

// emit writes w to buf[n] while space remains and nothing is queued ahead
// of it (preserving order), and parks it on the overflow queue otherwise.
// It returns the new fill count.
func (s *sweepIO) emit(w *window.Window, buf []window.Window, n int) int {
	if n < len(buf) && s.out.empty() {
		buf[n] = *w
		return n + 1
	}
	s.out.push(*w)
	return n
}

// NextBatch implements Iterator: every input batch is swept whole, so a
// buf smaller than the burst it produces finds the rest queued.
func (l *lawau) NextBatch(buf []window.Window) int {
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
func (l *lawau) consume(w *window.Window, buf []window.Window, n int) int {
	if !l.inGroup || w.RID != l.rid {
		n = l.flush(buf, n)
		l.startGroup(w)
	}
	if w.Class() == window.Unmatched {
		// Base unmatched window from the overlap join: the r tuple has no
		// match at all; its window already spans the whole interval.
		l.sawBase = true
		return l.emit(w, buf, n)
	}
	// Case analysis of Fig. 3: a gap exists iff the next overlapping
	// window starts after the covered prefix ends.
	if w.T.Start > l.maxEnd {
		g := l.gap(l.maxEnd, w.T.Start)
		n = l.emit(&g, buf, n)
	}
	n = l.emit(w, buf, n)
	if w.T.End > l.maxEnd {
		l.maxEnd = w.T.End
	}
	return n
}

func (l *lawau) startGroup(w *window.Window) {
	l.inGroup = true
	l.rid = w.RID
	l.rt = w.RT
	l.frLr = *w
	l.maxEnd = w.RT.Start
	l.sawBase = false
}

// flush emits the tail gap of the group being closed, if any.
func (l *lawau) flush(buf []window.Window, n int) int {
	if !l.inGroup || l.sawBase {
		return n
	}
	if l.maxEnd < l.rt.End {
		g := l.gap(l.maxEnd, l.rt.End)
		n = l.emit(&g, buf, n)
	}
	return n
}

func (l *lawau) gap(start, end interval.Time) window.Window {
	return window.Window{
		Fr: l.frLr.Fr, T: interval.Interval{Start: start, End: end},
		Lr: l.frLr.Lr, RID: l.rid, RT: l.rt,
	}
}
