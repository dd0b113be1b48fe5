package core

import (
	"math/rand"
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

func TestParallelJoinMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	eq := tp.Equi(0, 0)
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for trial := 0; trial < 60; trial++ {
		r := oracle.Small.Relation(rng, "r", rng.Intn(7))
		s := oracle.Small.Relation(rng, "s", rng.Intn(7))
		op := ops[trial%len(ops)]
		workers := 1 + trial%4

		if err := oracle.Bag(Join(op, r, s, eq), ParallelJoin(op, r, s, eq, workers)); err != nil {
			t.Fatalf("trial %d %v workers=%d: parallel differs: %v", trial, op, workers, err)
		}
	}
}

func TestParallelJoinDeterministic(t *testing.T) {
	r, s := dataset.Webkit(2000, 9)
	eq := dataset.WebkitTheta()
	a := ParallelJoin(tp.OpLeft, r, s, eq, 4)
	b := ParallelJoin(tp.OpLeft, r, s, eq, 4)
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic sizes")
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Fact.Equal(b.Tuples[i].Fact) || !a.Tuples[i].T.Equal(b.Tuples[i].T) {
			t.Fatalf("tuple %d order differs between runs", i)
		}
	}
}

func TestParallelJoinPaperExample(t *testing.T) {
	a, b := paperA(), paperB()
	q := ParallelJoin(tp.OpLeft, a, b, theta, 3)
	if q.Len() != 7 {
		t.Fatalf("parallel Fig. 1b has %d tuples, want 7", q.Len())
	}
	if err := oracle.PointWise(tp.RefJoin(tp.OpLeft, a, b, theta), q); err != nil {
		t.Fatal(err)
	}
}

func TestParallelJoinDefaultWorkers(t *testing.T) {
	a, b := paperA(), paperB()
	q := ParallelJoin(tp.OpAnti, a, b, theta, 0) // 0 → GOMAXPROCS
	if q.Len() != 5 {
		t.Fatalf("default-workers anti join has %d tuples, want 5", q.Len())
	}
}

// The worker-scaling pair below shows near-identical numbers on a
// single-core host (like the reference CI box); on multi-core machines
// the 4-worker variant scales with the partition parallelism.
func BenchmarkParallelJoin1Worker(b *testing.B) {
	r, s := dataset.Webkit(40000, 1)
	eq := dataset.WebkitTheta()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelJoin(tp.OpLeft, r, s, eq, 1)
	}
}

func BenchmarkParallelJoin4Workers(b *testing.B) {
	r, s := dataset.Webkit(40000, 1)
	eq := dataset.WebkitTheta()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelJoin(tp.OpLeft, r, s, eq, 4)
	}
}
