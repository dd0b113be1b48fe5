package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/mem"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// project runs ProjectLineage under the background context.
func project(t *testing.T, rel *tp.Relation, cols []int, names []string) *tp.Relation {
	t.Helper()
	out, err := ProjectLineage(context.Background(), rel, cols, names)
	if err != nil {
		t.Fatalf("ProjectLineage: %v", err)
	}
	return out
}

func TestProjectLineageMergesDuplicates(t *testing.T) {
	// Two hotels in ZAK: projecting availability to the location merges
	// them with OR lineage on the overlap.
	b := paperB()
	p := project(t, b, []int{1}, []string{"Loc"})
	pm, err := tp.Expand(p)
	if err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
	zak := tp.Strings("ZAK").Key()
	// At t=5 both hotel1 (0.7) and hotel2 (0.6) offer ZAK:
	// Pr(b2 ∨ b3) = 1 − 0.4·0.3 = 0.88.
	row, ok := pm[zak][5]
	if !ok {
		t.Fatalf("missing ZAK at 5")
	}
	if math.Abs(row.Prob-0.88) > 1e-9 {
		t.Errorf("merged probability = %g, want 0.88", row.Prob)
	}
	// At t=4 only hotel1: 0.7.
	if got := pm[zak][4].Prob; math.Abs(got-0.7) > 1e-9 {
		t.Errorf("t=4 prob = %g, want 0.7", got)
	}
	// SOR untouched.
	sor := tp.Strings("SOR").Key()
	if got := pm[sor][2].Prob; math.Abs(got-0.9) > 1e-9 {
		t.Errorf("SOR prob = %g", got)
	}
}

func TestProjectLineageCoalesces(t *testing.T) {
	// Adjacent chunks with the same surviving lineage merge back into
	// maximal intervals.
	r := tp.NewRelation("r", "K", "Sub")
	r.Append(tp.Strings("x", "p1"), interval.New(0, 5), 0.5)
	r.Append(tp.Strings("x", "p2"), interval.New(5, 9), 0.5) // different sub-fact, adjacent
	p := project(t, r, []int{0}, []string{"K"})
	if p.Len() != 2 {
		// r1 over [0,5) and r2 over [5,9) have different lineages — they
		// must NOT merge (they are different events).
		t.Fatalf("projection has %d tuples, want 2: %v", p.Len(), p)
	}

	// Same fact and same tuple split artificially: chunks share lineage →
	// they must re-coalesce into one.
	s := tp.NewRelation("s", "K", "Sub")
	v := s.Append(tp.Strings("y", "q"), interval.New(0, 4), 0.5)
	_ = v
	s2 := project(t, s, []int{0}, []string{"K"})
	if s2.Len() != 1 || !s2.Tuples[0].T.Equal(interval.New(0, 4)) {
		t.Errorf("single-tuple projection wrong: %v", s2)
	}
}

func TestProjectLineagePointwise(t *testing.T) {
	// Oracle: at each time point, the projected fact's probability is
	// Pr(∨ lineages of valid tuples mapping to it).
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 80; trial++ {
		r := tp.NewRelation("r", "K", "Sub")
		type span struct{ s, e interval.Time }
		used := make(map[string][]span)
		for i := 0; i < rng.Intn(8); i++ {
			k := []string{"x", "y"}[rng.Intn(2)]
			sub := []string{"u", "v", "w"}[rng.Intn(3)]
			st := interval.Time(rng.Intn(12))
			e := st + 1 + interval.Time(rng.Intn(5))
			key := k + "|" + sub
			ok := true
			for _, u := range used[key] {
				if st < u.e && u.s < e {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[key] = append(used[key], span{st, e})
			r.Append(tp.Strings(k, sub), interval.New(st, e), 0.1+0.8*rng.Float64())
		}
		p := project(t, r, []int{0}, []string{"K"})
		pm, err := tp.Expand(p)
		if err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, p)
		}
		ev := prob.NewBatchEvaluator(r.Probs)
		for _, k := range []string{"x", "y"} {
			fk := tp.Strings(k).Key()
			for tt := interval.Time(0); tt < 20; tt++ {
				var parts []float64
				q := 1.0
				for _, tu := range r.Tuples {
					if tu.Fact[0].AsString() == k && tu.T.Contains(tt) {
						pr := ev.Prob(tu.Lineage)
						parts = append(parts, pr)
						q *= 1 - pr
					}
				}
				row, ok := pm[fk][tt]
				if len(parts) == 0 {
					if ok {
						t.Fatalf("trial %d: spurious row at (%s,%d)", trial, k, tt)
					}
					continue
				}
				if !ok {
					t.Fatalf("trial %d: missing row at (%s,%d)", trial, k, tt)
				}
				want := 1 - q
				if math.Abs(row.Prob-want) > 1e-9 {
					t.Fatalf("trial %d: (%s,%d): got %g want %g", trial, k, tt, row.Prob, want)
				}
			}
		}
		// Maximality: no two adjacent output tuples of the same fact with
		// equal lineage.
		for i, a := range p.Tuples {
			for j, b2 := range p.Tuples {
				if i != j && a.Fact.Equal(b2.Fact) && a.T.End == b2.T.Start && a.Lineage.Equal(b2.Lineage) {
					t.Fatalf("trial %d: non-coalesced output: %v then %v", trial, a, b2)
				}
			}
		}
	}
}

func TestProjectLineagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	project(t, paperA(), []int{0, 1}, []string{"only-one"})
}

// TestProjectLineageObservesContext: the projection stops on a cancelled
// context and charges a memory budget for the rows it emits.
func TestProjectLineageObservesContext(t *testing.T) {
	r, _ := dataset.Meteo(2000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProjectLineage(ctx, r, []int{0}, []string{"Key"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	ctx = mem.WithGauge(context.Background(), mem.NewGauge(1024))
	if _, err := ProjectLineage(ctx, r, []int{0}, []string{"Key"}); !mem.IsBudget(err) {
		t.Fatalf("1 KiB budget: err = %v, want a budget error", err)
	}
}
