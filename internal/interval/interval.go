// Package interval provides the discrete-time interval algebra used by the
// temporal-probabilistic data model: half-open intervals [Start, End) over
// int64 time points.
//
// The conventions follow the paper "Outer and Anti Joins in
// Temporal-Probabilistic Databases" (ICDE 2019): time is a linearly ordered
// set of discrete time points (chronons), a tuple is valid at every time
// point t with Start <= t < End, and an interval is non-empty iff
// Start < End.
package interval

import (
	"fmt"
	"math"
)

// Time is a discrete time point (chronon).
type Time = int64

// Reserved sentinel points for open-ended horizons. They are ordinary
// values of Time; the algebra treats them like any other point, which keeps
// all operations total.
const (
	// MinTime is the smallest representable time point.
	MinTime Time = math.MinInt64
	// MaxTime is the largest representable time point; an interval that
	// ends at MaxTime is conventionally "until forever".
	MaxTime Time = math.MaxInt64
)

// Interval is a half-open interval [Start, End) of discrete time points.
// The zero value is the empty interval [0, 0).
type Interval struct {
	Start Time
	End   Time
}

// New returns the interval [start, end). It panics if start > end, which
// always indicates a programming error in callers (the data model never
// produces reversed intervals).
func New(start, end Time) Interval {
	if start > end {
		panic(fmt.Sprintf("interval: reversed interval [%d,%d)", start, end))
	}
	return Interval{Start: start, End: end}
}

// Empty reports whether iv contains no time points.
func (iv Interval) Empty() bool { return iv.Start >= iv.End }

// Duration returns the number of time points in iv (zero when empty).
func (iv Interval) Duration() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.End - iv.Start
}

// Contains reports whether time point t lies inside iv.
func (iv Interval) Contains(t Time) bool { return iv.Start <= t && t < iv.End }

// ContainsInterval reports whether other is fully inside iv. The empty
// interval is contained in every interval.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.Empty() {
		return true
	}
	return iv.Start <= other.Start && other.End <= iv.End
}

// Overlaps reports whether iv and other share at least one time point.
// This is the overlap predicate θo used by the overlap join r ⟕_{θo∧θ} s.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return false
	}
	return iv.Start < other.End && other.Start < iv.End
}

// Intersect returns the intersection of iv and other. When the intervals
// are disjoint the result is empty (and its bounds are unspecified beyond
// Empty() being true).
func (iv Interval) Intersect(other Interval) Interval {
	s := max64(iv.Start, other.Start)
	e := min64(iv.End, other.End)
	if s >= e {
		return Interval{}
	}
	return Interval{Start: s, End: e}
}

// Equal reports whether the two intervals contain exactly the same time
// points. All empty intervals are equal.
func (iv Interval) Equal(other Interval) bool {
	if iv.Empty() && other.Empty() {
		return true
	}
	return iv == other
}

// Less orders intervals by (Start, End). It is the canonical sort order for
// sweep algorithms.
func (iv Interval) Less(other Interval) bool {
	if iv.Start != other.Start {
		return iv.Start < other.Start
	}
	return iv.End < other.End
}

// Compare returns -1, 0 or +1 comparing (Start, End) lexicographically.
func (iv Interval) Compare(other Interval) int {
	switch {
	case iv.Start < other.Start:
		return -1
	case iv.Start > other.Start:
		return 1
	case iv.End < other.End:
		return -1
	case iv.End > other.End:
		return 1
	default:
		return 0
	}
}

// String renders the interval in the paper's [s,e) notation.
func (iv Interval) String() string {
	if iv.Empty() {
		return "[)"
	}
	return fmt.Sprintf("[%s,%s)", fmtTime(iv.Start), fmtTime(iv.End))
}

func fmtTime(t Time) string {
	switch t {
	case MinTime:
		return "-inf"
	case MaxTime:
		return "+inf"
	default:
		return fmt.Sprintf("%d", t)
	}
}

func min64(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

func max64(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
