package setops

import (
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/tp"
)

// BenchmarkSetOps times ∪ and ∩ of a 10 000-tuple with a 5 000-tuple
// relation on both evaluation workloads — the micro-benchmark CHANGES.md
// quotes for the set operations, which no BENCHMARK.json workload runs.
func BenchmarkSetOps(b *testing.B) {
	wr, _ := dataset.Webkit(20000, 1)
	_, ws := dataset.Webkit(10000, 1)
	mr, _ := dataset.Meteo(20000, 1)
	_, ms := dataset.Meteo(10000, 1)
	for _, in := range []struct {
		name string
		r, s *tp.Relation
	}{{"webkit", wr, ws}, {"meteo", mr, ms}} {
		b.Run(in.name+"/union", func(b *testing.B) {
			for b.Loop() {
				if _, err := Union(ctx, in.r, in.s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/intersect", func(b *testing.B) {
			for b.Loop() {
				if _, err := Intersect(ctx, in.r, in.s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
