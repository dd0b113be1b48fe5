package core

import (
	"math/rand"
	"strconv"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// The paper's windows are defined for arbitrary θ conditions, not just
// equalities; the nested-loop overlap join handles them. These tests
// exercise inequality and band conditions against the reference
// semantics and the Table I spec.

// digit reads a one-digit key ("0" … "9") as its number.
func digit(v tp.Value) int { return int(v.AsString()[0] - '0') }

// bandTheta matches when the numeric keys differ by at most 1.
var bandTheta = tp.FuncTheta(func(r, s tp.Fact) bool {
	d := digit(r[0]) - digit(s[0])
	return d >= -1 && d <= 1
})

// lessTheta matches when r's key is strictly smaller.
var lessTheta = tp.FuncTheta(func(r, s tp.Fact) bool {
	return digit(r[0]) < digit(s[0])
})

// randIntRelation draws tuples whose one-digit keys lie in [0, maxKey).
func randIntRelation(rng *rand.Rand, name string, maxKey int64) *tp.Relation {
	rel := tp.NewRelation(name, "K")
	type span struct{ s, e interval.Time }
	used := make(map[int64][]span)
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		k := rng.Int63n(maxKey)
		st := interval.Time(rng.Intn(15))
		e := st + 1 + interval.Time(rng.Intn(6))
		ok := true
		for _, u := range used[k] {
			if st < u.e && u.s < e {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		used[k] = append(used[k], span{st, e})
		rel.Append(tp.Strings(strconv.FormatInt(k, 10)), interval.New(st, e), 0.1+0.8*rng.Float64())
	}
	return rel
}

func TestGeneralThetaSweepsMatchSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	thetas := []tp.Theta{bandTheta, lessTheta, tp.TrueTheta{}}
	for trial := 0; trial < 90; trial++ {
		r := randIntRelation(rng, "r", 4)
		s := randIntRelation(rng, "s", 4)
		th := thetas[trial%len(thetas)]

		got := Drain(LAWAN(LAWAU(OverlapJoin(r, s, th))))
		want := append(window.SpecOverlapping(r, s, th), window.SpecUnmatched(r, s, th)...)
		want = append(want, window.SpecNegating(r, s, th)...)
		if !window.SetEqual(got, want) {
			t.Fatalf("trial %d (θ #%d): window mismatch\n got %v\nwant %v\nr=%v\ns=%v",
				trial, trial%len(thetas), got, want, r, s)
		}
		for _, w := range got {
			if !window.Check(w, r, s, th) {
				t.Fatalf("trial %d: window fails Table I checker under general θ: %v", trial, w)
			}
		}
	}
}

func TestGeneralThetaOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for trial := 0; trial < 60; trial++ {
		r := randIntRelation(rng, "r", 4)
		s := randIntRelation(rng, "s", 4)
		op := ops[trial%len(ops)]
		th := tp.Theta(bandTheta)
		if trial%2 == 1 {
			th = lessTheta
		}
		q := Join(op, r, s, th)
		if err := oracle.PointWise(tp.RefJoin(op, r, s, th), q); err != nil {
			t.Fatalf("trial %d %v under general θ: %v\nr=%v\ns=%v", trial, op, err, r, s)
		}
	}
}

func TestCrossProductTheta(t *testing.T) {
	// TrueTheta: every pair of overlapping tuples joins (temporal cross
	// product); the anti join keeps only intervals where *nothing* on the
	// other side is valid.
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings("x"), interval.New(0, 10), 0.5)
	s := tp.NewRelation("s", "K")
	s.Append(tp.Strings("p"), interval.New(2, 4), 0.5)
	s.Append(tp.Strings("q"), interval.New(6, 8), 0.5)
	q := AntiJoin(r, s, tp.TrueTheta{})
	if err := oracle.PointWise(tp.RefJoin(tp.OpAnti, r, s, tp.TrueTheta{}), q); err != nil {
		t.Fatal(err)
	}
	// [0,2) and [4,6) and [8,10) must be fully unmatched (prob 0.5);
	// [2,4) and [6,8) negated (0.25).
	pm, _ := tp.Expand(q)
	xKey := tp.Strings("x").Key()
	for _, c := range []struct {
		t    interval.Time
		want float64
	}{{0, 0.5}, {3, 0.25}, {5, 0.5}, {7, 0.25}, {9, 0.5}} {
		row := pm[xKey][c.t]
		if d := row.Prob - c.want; d < -1e-9 || d > 1e-9 {
			t.Errorf("t=%d: prob %g, want %g", c.t, row.Prob, c.want)
		}
	}
}
