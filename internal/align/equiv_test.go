package align

// Byte-identity pins between the indexed (batched-substrate) alignment
// pipeline and the scalar reference it replaced: same fragments in the
// same order with identically ordered covers, and — through the join
// paths — identical output relations down to the lineage rendering and
// row order: any hot-path change that reorders or drops a fragment fails
// here before it can skew the evaluation.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

func fragmentsEqual(t *testing.T, label string, want, got []Fragment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d fragments", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.RID != g.RID || !w.T.Equal(g.T) {
			t.Fatalf("%s: fragment %d: want RID=%d %v, got RID=%d %v", label, i, w.RID, w.T, g.RID, g.T)
		}
		if len(w.Cover) != len(g.Cover) {
			t.Fatalf("%s: fragment %d cover: want %v, got %v", label, i, w.Cover, g.Cover)
		}
		for j := range w.Cover {
			if w.Cover[j] != g.Cover[j] {
				t.Fatalf("%s: fragment %d cover[%d]: want %v, got %v", label, i, j, w.Cover, g.Cover)
			}
		}
	}
}

// TestIndexedMatchesScalarAlign pins the indexed pipeline to the scalar
// reference fragment-for-fragment (including cover order) on random
// relations, sparse and dense.
func TestIndexedMatchesScalarAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	theta := tp.Equi(0, 0)
	for trial := 0; trial < 150; trial++ {
		var r, s *tp.Relation
		if trial%2 == 0 {
			r, s = oracle.Small.Relation(rng, "r", rng.Intn(7)), oracle.Small.Relation(rng, "s", rng.Intn(7))
		} else {
			r = oracle.Dense.Relation(rng, "r", rng.Intn(30))
			s = oracle.Dense.Relation(rng, "s", rng.Intn(30))
		}
		want := ScalarAlign(r, s, theta, Config{})
		got := Align(r, s, theta, Config{})
		fragmentsEqual(t, fmt.Sprintf("trial %d", trial), want, got)
	}
}

// TestIndexedMatchesScalarOnWorkloads runs the same pin on slices of the
// seeded benchmark workloads, where per-key chains and group structure
// are realistic.
func TestIndexedMatchesScalarOnWorkloads(t *testing.T) {
	for _, gen := range []struct {
		name string
		mk   func() (*tp.Relation, *tp.Relation)
	}{
		{"webkit", func() (*tp.Relation, *tp.Relation) { return dataset.Webkit(800, 5) }},
		{"meteo", func() (*tp.Relation, *tp.Relation) { return dataset.Meteo(600, 5) }},
	} {
		r, s := gen.mk()
		theta := dataset.WebkitTheta()
		fragmentsEqual(t, gen.name, ScalarAlign(r, s, theta, Config{}), Align(r, s, theta, Config{}))
		// Mirror direction too (the full outer join drains it).
		sw := tp.Swap(theta)
		fragmentsEqual(t, gen.name+"/mirror", ScalarAlign(s, r, sw, Config{}), Align(s, r, sw, Config{}))
	}
}

// countingAligner counts the drains run against the aligner it wraps.
type countingAligner struct {
	aligner
	drains int
}

func (c *countingAligner) drain(ctx context.Context, r *tp.Relation, emit emitFunc) error {
	c.drains++
	return c.aligner.drain(ctx, r, emit)
}

// TestCoverArenaGuardFallsBack pins the pathological-workload guard: when
// the cover arena would exceed maxCoverArena (quadratic in a skewed key
// group), newAligner must hand out the scalar aligner, the join must
// still produce byte-identical fragments and rows — and must not pay a
// counting pass on exactly the input the guard exists for: one drain per
// alignment pass, none for counting.
func TestCoverArenaGuardFallsBack(t *testing.T) {
	old := maxCoverArena
	maxCoverArena = 8 // every tuple spans at least one segment, and both inputs have ≥ 10
	defer func() { maxCoverArena = old }()
	rng := rand.New(rand.NewSource(71))
	theta := tp.Equi(0, 0)
	for trial := 0; trial < 20; trial++ {
		r := oracle.Dense.Relation(rng, "r", 10+rng.Intn(20))
		s := oracle.Dense.Relation(rng, "s", 10+rng.Intn(20))
		want := ScalarAlign(r, s, theta, Config{})
		got := Align(r, s, theta, Config{})
		fragmentsEqual(t, fmt.Sprintf("guard trial %d", trial), want, got)
		// The join paths route through the same guard.
		if err := oracle.Same(referenceJoin(tp.OpLeft, r, s, theta, Config{}), Join(tp.OpLeft, r, s, theta, Config{})); err != nil {
			t.Fatalf("guard trial %d: join rows diverge under fallback: %v", trial, err)
		}
		fwd := &countingAligner{aligner: mustAligner(s, theta, Config{})}
		mir := &countingAligner{aligner: mustAligner(r, tp.Swap(theta), Config{})}
		if fwd.cheapCount() || mir.cheapCount() {
			t.Fatalf("guard trial %d: guard did not trip", trial)
		}
		out, err := reductions[tp.OpFull].stream(context.Background(), r, s, nil, fwd, mir)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Same(referenceJoin(tp.OpFull, r, s, theta, Config{}), out); err != nil {
			t.Fatalf("guard trial %d: full join rows diverge under fallback: %v", trial, err)
		}
		if fwd.drains != 1 || mir.drains != 1 {
			t.Fatalf("guard trial %d: %d forward and %d mirror drains, want one alignment pass each and no counting pass",
				trial, fwd.drains, mir.drains)
		}
	}
}

// TestJoinByteIdenticalToScalar pins the whole operator: the production
// join paths (indexed aligners under the hash config) must produce the
// same relation — row order, lineage rendering, probabilities — as the
// scalar-path join.
func TestJoinByteIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	theta := tp.Equi(0, 0)
	for trial := 0; trial < 60; trial++ {
		r := oracle.Dense.Relation(rng, "r", rng.Intn(25))
		s := oracle.Dense.Relation(rng, "s", rng.Intn(25))
		op := ops[trial%len(ops)]
		if err := oracle.Same(referenceJoin(op, r, s, theta, Config{}), Join(op, r, s, theta, Config{})); err != nil {
			t.Fatalf("trial %d %v: %v", trial, op, err)
		}
	}
}
