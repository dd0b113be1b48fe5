// Package core implements the paper's contribution: the pipelined
// computation of generalized lineage-aware temporal windows and, on top of
// them, the temporal-probabilistic joins with negation (anti, left outer,
// right outer, full outer) plus the inner join.
//
// The computation is structured exactly as in Section III of the paper:
//
//	OverlapJoin   — the conventional outer join r ⟕_{θo∧θ} s, producing
//	                the overlapping windows (enhanced with the original
//	                interval of the r tuple) and the unmatched windows of
//	                r tuples that match no tuple of s at all;
//	LAWAU         — extends that stream with the remaining unmatched
//	                windows (gaps inside partially covered r tuples);
//	LAWAN         — extends the WUO stream with the negating windows,
//	                using a priority queue over the end points of the
//	                active s tuples.
//
// All three are pull-based iterators: windows stream through without
// materializing intermediate sets and without replicating input tuples,
// which is what allows the approach to run inside a pipelined DBMS
// executor (internal/engine).
package core

import (
	"tpjoin/internal/window"
)

// Iterator is a pull-based stream of windows and the one contract between
// pipeline stages: NextBatch fills buf with up to len(buf) windows and
// returns how many it wrote; 0 means the stream is exhausted. The window
// sequence does not depend on the buffer sizes the consumer passes — a
// stage whose burst outgrows buf parks the rest on an overflow queue and
// hands it out first on the next call — which is the property the
// buffer-size invariance tests pin.
type Iterator interface {
	NextBatch(buf []window.Window) int
}

// BatchSize is the largest number of windows that move per NextBatch hop
// between pipeline stages. 256 windows ≈ 26 KiB: large enough to amortize
// call overhead, small enough to stay cache-resident.
const BatchSize = 256

// Drain materializes the remainder of an iterator into a slice.
func Drain(it Iterator) []window.Window {
	buf := make([]window.Window, BatchSize)
	var out []window.Window
	for {
		n := it.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// Count consumes the iterator and returns the number of windows; used by
// benchmarks to force full evaluation without retaining memory.
func Count(it Iterator) int {
	buf := make([]window.Window, BatchSize)
	n := 0
	for {
		c := it.NextBatch(buf)
		if c == 0 {
			return n
		}
		n += c
	}
}

// SliceIterator replays a materialized window slice.
type SliceIterator struct {
	ws []window.Window
	i  int
}

// NewSliceIterator returns an iterator over ws.
func NewSliceIterator(ws []window.Window) *SliceIterator {
	return &SliceIterator{ws: ws}
}

// NextBatch implements Iterator.
func (s *SliceIterator) NextBatch(buf []window.Window) int {
	n := copy(buf, s.ws[s.i:])
	s.i += n
	return n
}

// queue is the overflow FIFO of a stage that may emit several windows per
// input window: what does not fit the consumer's buffer waits here.
type queue struct {
	buf  []window.Window
	head int
}

func (q *queue) push(w window.Window) { q.buf = append(q.buf, w) }

// popInto moves up to len(buf) queued windows into buf and returns how
// many it moved.
func (q *queue) popInto(buf []window.Window) int {
	n := copy(buf, q.buf[q.head:])
	q.head += n
	if q.head == len(q.buf) {
		// Reuse storage once fully drained to keep the queue allocation
		// bounded by the burst size, not the stream length.
		q.buf = q.buf[:0]
		q.head = 0
	}
	return n
}

func (q *queue) empty() bool { return q.head >= len(q.buf) }
