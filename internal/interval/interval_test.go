package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndEmpty(t *testing.T) {
	iv := New(2, 8)
	if iv.Empty() {
		t.Fatalf("New(2,8) reported empty")
	}
	if got := iv.Duration(); got != 6 {
		t.Fatalf("Duration = %d, want 6", got)
	}
	if !New(3, 3).Empty() {
		t.Fatalf("New(3,3) should be empty")
	}
	var zero Interval
	if !zero.Empty() {
		t.Fatalf("zero value should be empty")
	}
	if zero.Duration() != 0 {
		t.Fatalf("empty duration must be 0")
	}
}

func TestNewPanicsOnReversed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(5,2) did not panic")
		}
	}()
	New(5, 2)
}

func TestContains(t *testing.T) {
	iv := New(2, 8)
	cases := []struct {
		t    Time
		want bool
	}{
		{1, false}, {2, true}, {5, true}, {7, true}, {8, false}, {9, false},
	}
	for _, c := range cases {
		if got := iv.Contains(c.t); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestContainsInterval(t *testing.T) {
	iv := New(2, 8)
	if !iv.ContainsInterval(New(2, 8)) {
		t.Errorf("interval should contain itself")
	}
	if !iv.ContainsInterval(New(3, 5)) {
		t.Errorf("[2,8) should contain [3,5)")
	}
	if iv.ContainsInterval(New(1, 5)) {
		t.Errorf("[2,8) should not contain [1,5)")
	}
	if iv.ContainsInterval(New(5, 9)) {
		t.Errorf("[2,8) should not contain [5,9)")
	}
	if !iv.ContainsInterval(Interval{}) {
		t.Errorf("every interval contains the empty interval")
	}
}

func TestOverlapsAndIntersect(t *testing.T) {
	cases := []struct {
		a, b     Interval
		overlap  bool
		isectDur int64
	}{
		{New(2, 8), New(4, 6), true, 2},
		{New(2, 8), New(5, 12), true, 3},
		{New(2, 8), New(8, 12), false, 0}, // meets: half-open, no shared point
		{New(2, 8), New(9, 12), false, 0},
		{New(4, 6), New(2, 8), true, 2},
		{New(7, 10), New(2, 8), true, 1},
		{New(3, 3), New(2, 8), false, 0}, // empty never overlaps
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.overlap {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.overlap)
		}
		if got := c.a.Intersect(c.b).Duration(); got != c.isectDur {
			t.Errorf("%v.Intersect(%v).Duration = %d, want %d", c.a, c.b, got, c.isectDur)
		}
	}
}

func TestOverlapsSymmetric(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := ordered(Time(a1), Time(a2))
		b := ordered(Time(b1), Time(b2))
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectMatchesPointwise(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		a := ordered(Time(a1), Time(a2))
		b := ordered(Time(b1), Time(b2))
		x := a.Intersect(b)
		for p := Time(-130); p <= 130; p++ {
			if x.Contains(p) != (a.Contains(p) && b.Contains(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualLessCompare(t *testing.T) {
	if !New(2, 5).Equal(New(2, 5)) {
		t.Errorf("identical intervals must be Equal")
	}
	if !New(3, 3).Equal(New(7, 7)) {
		t.Errorf("all empty intervals are Equal")
	}
	if New(2, 5).Equal(New(2, 6)) {
		t.Errorf("[2,5) != [2,6)")
	}
	if !New(2, 5).Less(New(2, 6)) || !New(2, 5).Less(New(3, 4)) {
		t.Errorf("Less ordering wrong")
	}
	if New(2, 5).Compare(New(2, 5)) != 0 {
		t.Errorf("Compare equal failed")
	}
	if New(2, 5).Compare(New(2, 6)) != -1 || New(2, 6).Compare(New(2, 5)) != 1 {
		t.Errorf("Compare end tiebreak failed")
	}
	if New(1, 9).Compare(New(2, 3)) != -1 || New(3, 4).Compare(New(2, 9)) != 1 {
		t.Errorf("Compare start ordering failed")
	}
}

func TestString(t *testing.T) {
	if got := New(2, 8).String(); got != "[2,8)" {
		t.Errorf("String = %q", got)
	}
	if got := (Interval{}).String(); got != "[)" {
		t.Errorf("empty String = %q", got)
	}
	if got := New(0, MaxTime).String(); got != "[0,+inf)" {
		t.Errorf("open-ended String = %q", got)
	}
	if got := New(MinTime, 0).String(); got != "[-inf,0)" {
		t.Errorf("open-start String = %q", got)
	}
}

func TestGapsBasic(t *testing.T) {
	span := New(2, 8)
	cover := []Interval{New(4, 6), New(5, 8)}
	got := Gaps(span, cover)
	want := []Interval{New(2, 4)}
	assertIntervals(t, got, want)
}

func TestGapsNoCover(t *testing.T) {
	got := Gaps(New(7, 10), nil)
	assertIntervals(t, got, []Interval{New(7, 10)})
}

func TestGapsFullCover(t *testing.T) {
	got := Gaps(New(2, 8), []Interval{New(0, 10)})
	assertIntervals(t, got, nil)
}

func TestGapsMiddleAndTail(t *testing.T) {
	got := Gaps(New(0, 10), []Interval{New(2, 3), New(5, 6)})
	assertIntervals(t, got, []Interval{New(0, 2), New(3, 5), New(6, 10)})
}

func TestGapsIgnoresOutside(t *testing.T) {
	got := Gaps(New(2, 8), []Interval{New(10, 20), New(-5, 1)})
	assertIntervals(t, got, []Interval{New(2, 8)})
}

func TestGapsPointwiseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		span := randIv(rng, 50)
		n := rng.Intn(6)
		cover := make([]Interval, n)
		for i := range cover {
			cover[i] = randIv(rng, 50)
		}
		gaps := Gaps(span, cover)
		for p := Time(0); p < 50; p++ {
			covered := false
			for _, c := range cover {
				if c.Contains(p) {
					covered = true
				}
			}
			want := span.Contains(p) && !covered
			got := false
			for _, g := range gaps {
				if g.Contains(p) {
					got = true
				}
			}
			if got != want {
				t.Fatalf("trial %d: span=%v cover=%v gaps=%v point=%d got=%v want=%v",
					trial, span, cover, gaps, p, got, want)
			}
		}
		// Gaps must be maximal: no two adjacent.
		for i := 0; i+1 < len(gaps); i++ {
			if gaps[i].End >= gaps[i+1].Start {
				t.Fatalf("gaps not disjoint/maximal: %v", gaps)
			}
		}
	}
}

func TestElementary(t *testing.T) {
	// The negating-window structure of the paper's example: b3=[4,6), b2=[5,8).
	got := Elementary([]Interval{New(4, 6), New(5, 8)})
	assertIntervals(t, got, []Interval{New(4, 5), New(5, 6), New(6, 8)})
}

func TestElementaryWithHole(t *testing.T) {
	got := Elementary([]Interval{New(1, 3), New(5, 7)})
	assertIntervals(t, got, []Interval{New(1, 3), New(5, 7)})
}

func TestElementaryEmpty(t *testing.T) {
	if got := Elementary(nil); got != nil {
		t.Errorf("Elementary(nil) = %v", got)
	}
	if got := Elementary([]Interval{{}}); got != nil {
		t.Errorf("Elementary(empty) = %v", got)
	}
}

func TestElementaryCoversSameRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = randIv(rng, 40)
		}
		elem := Elementary(ivs)
		for p := Time(0); p < 40; p++ {
			in := false
			for _, iv := range ivs {
				if iv.Contains(p) {
					in = true
				}
			}
			out := false
			for _, e := range elem {
				if e.Contains(p) {
					out = true
				}
			}
			if in != out {
				t.Fatalf("trial %d: region mismatch at %d: ivs=%v elem=%v", trial, p, ivs, elem)
			}
		}
		// Within an elementary interval, the covering set must be constant.
		for _, e := range elem {
			for _, iv := range ivs {
				x := iv.Intersect(e)
				if !x.Empty() && !x.Equal(e) {
					t.Fatalf("elementary %v straddles boundary of %v", e, iv)
				}
			}
		}
	}
}

func randIv(rng *rand.Rand, horizon int64) Interval {
	s := rng.Int63n(horizon)
	d := rng.Int63n(horizon / 2)
	return New(s, s+d)
}

func ordered(a, b Time) Interval {
	if a > b {
		a, b = b, a
	}
	return New(a, b)
}

func assertIntervals(t *testing.T, got, want []Interval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("index %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
