package interval

import "sort"

// Gaps returns the maximal subintervals of span that are not covered by any
// interval in cover. The cover intervals may overlap each other and need not
// be sorted; empty cover intervals are ignored. The result is in temporal
// order. This is the set-level specification of what the LAWAU sweep
// computes incrementally, and is used as a test oracle for it.
func Gaps(span Interval, cover []Interval) []Interval {
	if span.Empty() {
		return nil
	}
	cs := make([]Interval, 0, len(cover))
	for _, c := range cover {
		c = c.Intersect(span)
		if !c.Empty() {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Less(cs[j]) })

	var out []Interval
	cur := span.Start
	for _, c := range cs {
		if c.Start > cur {
			out = append(out, Interval{Start: cur, End: c.Start})
		}
		if c.End > cur {
			cur = c.End
		}
	}
	if cur < span.End {
		out = append(out, Interval{Start: cur, End: span.End})
	}
	return out
}

// Elementary splits the region covered by ivs at every interval boundary,
// returning the elementary intervals in temporal order. Within one
// elementary interval the set of covering input intervals is constant.
// This is the set-level specification of the interval structure of
// negating windows (LAWAN) and of temporal alignment's normalization.
func Elementary(ivs []Interval) []Interval {
	points := make([]Time, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.Empty() {
			continue
		}
		points = append(points, iv.Start, iv.End)
	}
	if len(points) == 0 {
		return nil
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	uniq := make([]Time, 0, len(points))
	uniq = append(uniq, points[0])
	for _, p := range points[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	var out []Interval
	for i := 0; i+1 < len(uniq); i++ {
		cand := Interval{Start: uniq[i], End: uniq[i+1]}
		for _, iv := range ivs {
			if iv.Overlaps(cand) {
				out = append(out, cand)
				break
			}
		}
	}
	return out
}
