package core

import (
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/tp"
)

// Micro-benchmarks of the pipeline stages, used to attribute the figure-
// level results to individual operators.

func benchInput(b *testing.B, n int) (*tp.Relation, *tp.Relation, tp.EquiTheta) {
	b.Helper()
	r, s := dataset.Webkit(n, 1)
	return r, s, dataset.WebkitTheta()
}

func BenchmarkOverlapJoinHash(b *testing.B) {
	r, s, theta := benchInput(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(OverlapJoin(r, s, theta))
	}
}

func BenchmarkOverlapJoinNestedLoop(b *testing.B) {
	r, s, theta := benchInput(b, 2000)
	loop := tp.FuncTheta(func(x, y tp.Fact) bool { return theta.Match(x, y) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(OverlapJoin(r, s, loop))
	}
}

func BenchmarkLAWAUSweep(b *testing.B) {
	r, s, theta := benchInput(b, 20000)
	wo := Drain(OverlapJoin(r, s, theta))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(LAWAU(NewSliceIterator(wo)))
	}
}

func BenchmarkLAWANSweep(b *testing.B) {
	r, s, theta := benchInput(b, 20000)
	wuo := Drain(LAWAU(OverlapJoin(r, s, theta)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(LAWAN(NewSliceIterator(wuo)))
	}
}

func BenchmarkLeftOuterJoinComplete(b *testing.B) {
	r, s, theta := benchInput(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LeftOuterJoin(r, s, theta)
	}
}

func BenchmarkJoinStreamPipelined(b *testing.B) {
	// The streaming API: first 100 tuples only — pipelining means cost is
	// proportional to consumption, not to the full result.
	r, s, theta := benchInput(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := JoinStream(tp.OpLeft, r, s, theta)
		for j := 0; j < 100; j++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}
