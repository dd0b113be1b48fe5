package dataset

import (
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/tp"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "r", N: 500, Keys: 20, KeyPrefix: "k", Groups: 2,
		GroupPrefix: "g", MeanDur: 10, MeanGap: 2, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ")
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Fact.Equal(b.Tuples[i].Fact) ||
			!a.Tuples[i].T.Equal(b.Tuples[i].T) ||
			a.Tuples[i].Prob != b.Tuples[i].Prob {
			t.Fatalf("tuple %d differs between equal-seed runs", i)
		}
	}
	c := Generate(Config{Name: "r", N: 500, Keys: 20, KeyPrefix: "k", Groups: 2,
		GroupPrefix: "g", MeanDur: 10, MeanGap: 2, Seed: 8})
	same := true
	for i := range a.Tuples {
		if !a.Tuples[i].T.Equal(c.Tuples[i].T) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds must produce different data")
	}
}

func TestGenerateSequencedValid(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "r", N: 2000, Keys: 50, KeyPrefix: "f", Groups: 1, GroupPrefix: "s",
			MeanDur: 30, SkewDur: true, MeanGap: 3, Seed: 1},
		{Name: "r", N: 2000, Keys: 10, KeyPrefix: "m", Groups: 8, GroupPrefix: "st",
			MeanDur: 50, SkewDur: false, MeanGap: 10, Seed: 2},
	} {
		rel := Generate(cfg)
		if rel.Len() != cfg.N {
			t.Errorf("generated %d tuples, want %d", rel.Len(), cfg.N)
		}
		if err := rel.ValidateSequenced(); err != nil {
			t.Errorf("generated relation violates sequenced constraint: %v", err)
		}
		for _, tu := range rel.Tuples {
			if tu.Prob <= 0 || tu.Prob >= 1 {
				t.Fatalf("probability out of (0,1): %g", tu.Prob)
			}
			if tu.T.Duration() < 1 {
				t.Fatalf("degenerate interval %v", tu.T)
			}
		}
	}
}

func TestGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Generate(Config{N: 10, Keys: 0, Groups: 1})
}

func TestWebkitShape(t *testing.T) {
	r, s := Webkit(4000, 42)
	if r.Len()+s.Len() != 4000 {
		t.Fatalf("total tuples = %d", r.Len()+s.Len())
	}
	if err := r.ValidateSequenced(); err != nil {
		t.Fatalf("webkit r invalid: %v", err)
	}
	if err := s.ValidateSequenced(); err != nil {
		t.Fatalf("webkit s invalid: %v", err)
	}
	// Many distinct keys: ≈ N/2/8.
	keys := distinctKeys(r)
	if keys < 200 || keys > 260 {
		t.Errorf("webkit distinct keys = %d, want ≈ 250", keys)
	}
}

func TestMeteoShape(t *testing.T) {
	r, s := Meteo(4000, 42)
	if r.Len()+s.Len() != 4000 {
		t.Fatalf("total tuples = %d", r.Len()+s.Len())
	}
	if err := r.ValidateSequenced(); err != nil {
		t.Fatalf("meteo r invalid: %v", err)
	}
	if err := s.ValidateSequenced(); err != nil {
		t.Fatalf("meteo s invalid: %v", err)
	}
	// Few distinct keys (the paper's low-selectivity property).
	keys := distinctKeys(r)
	if keys > 40 {
		t.Errorf("meteo distinct keys = %d, want ≤ 40", keys)
	}
	// Meteo groups must be much larger than Webkit groups: compare the
	// overlap-join output sizes at equal input size.
	wr, ws := Webkit(4000, 1)
	meteoWindows := core.Count(core.OverlapJoin(r, s, MeteoTheta()))
	webkitWindows := core.Count(core.OverlapJoin(wr, ws, WebkitTheta()))
	if meteoWindows < 4*webkitWindows {
		t.Errorf("meteo must be far less selective: meteo=%d webkit=%d windows",
			meteoWindows, webkitWindows)
	}
}

func TestWorkloadsJoinable(t *testing.T) {
	// End-to-end smoke: the generated workloads run through both engines
	// and agree point-wise on a small instance.
	r, s := Webkit(300, 5)
	nj := core.Join(tp.OpLeft, r, s, WebkitTheta())
	if nj.Len() == 0 {
		t.Fatalf("empty join result on webkit workload")
	}
	if err := nj.ValidateSequenced(); err == nil {
		// Join results can legitimately repeat facts at a time point only
		// across different facts; Expand double-checks per fact.
		if _, err2 := tp.Expand(nj); err2 != nil {
			t.Fatalf("webkit NJ result not point-wise consistent: %v", err2)
		}
	}
}

func distinctKeys(r *tp.Relation) int {
	m := make(map[string]struct{})
	for _, tu := range r.Tuples {
		m[tu.Fact[0].AsString()] = struct{}{}
	}
	return len(m)
}

// TestWorkloadNJEqualsTA is the medium-scale end-to-end soak: on real
// generated workloads (not just the tiny random relations of the unit
// tests), NJ and TA must produce point-wise identical left outer joins.
func TestWorkloadNJEqualsTA(t *testing.T) {
	for _, ds := range []string{"webkit", "meteo"} {
		var r, s *tp.Relation
		var theta tp.EquiTheta
		if ds == "webkit" {
			r, s = Webkit(1200, 3)
			theta = WebkitTheta()
		} else {
			r, s = Meteo(600, 3)
			theta = MeteoTheta()
		}
		nj := core.Join(tp.OpLeft, r, s, theta)
		njPM, err := tp.Expand(nj)
		if err != nil {
			t.Fatalf("%s: NJ result invalid: %v", ds, err)
		}
		ta := align.Join(tp.OpLeft, r, s, theta, align.Config{})
		taPM, err := tp.Expand(ta)
		if err != nil {
			t.Fatalf("%s: TA result invalid: %v", ds, err)
		}
		if err := njPM.EqualProb(taPM, 1e-9); err != nil {
			t.Fatalf("%s: NJ and TA disagree at scale: %v", ds, err)
		}
	}
}
