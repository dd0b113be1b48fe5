// Benchmarks reproducing the paper's evaluation: one top-level benchmark
// per figure panel, whose sub-benchmarks are the rows of the panel table
// in internal/bench — <dataset>/<series>, e.g.
// BenchmarkFig7_LeftOuter/webkit/TA. The paper's sweeps go to 200K input
// tuples; each panel runs here at the second size of its default sweep
// (100K Webkit, 20K Meteo, 10K for Fig. 7a's nested-loop TA plan), so the
// whole suite runs in minutes while preserving every comparison the
// figures make (cmd/tpbench regenerates the full sweeps).
//
//	Fig. 5 — overlapping + unmatched windows (WUO): NJ vs TA
//	Fig. 6 — negating windows: NJ-WN, NJ-WUON vs TA
//	Fig. 7 — full TP left outer join: NJ, PNJ vs TA, PTA
//	A1/A2 — extensions: anti join and full outer join
package tpjoin_test

import (
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/bench"
	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
)

const benchSeed = 1

// benchPanel runs every series of the panel on both datasets. Inputs are
// generated inside the dataset's sub-benchmark, so a -bench pattern that
// filters a dataset out does not pay for its generation.
func benchPanel(b *testing.B, fig string) {
	for _, p := range bench.Panels {
		if p.Fig != fig {
			continue
		}
		for _, ds := range bench.Datasets {
			b.Run(ds, func(b *testing.B) {
				for _, rn := range p.Bind(ds, p.Sizes(ds)[1], benchSeed) {
					b.Run(rn.Series, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							rn.Run()
						}
					})
				}
			})
		}
		return
	}
	b.Fatalf("no panel %q in bench.Panels", fig)
}

func BenchmarkFig5_WUO(b *testing.B)        { benchPanel(b, "5") }
func BenchmarkFig6_Negating(b *testing.B)   { benchPanel(b, "6") }
func BenchmarkFig7_LeftOuter(b *testing.B)  { benchPanel(b, "7") }
func BenchmarkExtA1_Anti(b *testing.B)      { benchPanel(b, "A1") }
func BenchmarkExtA2_FullOuter(b *testing.B) { benchPanel(b, "A2") }

// Ablation: the hash-partitioned TA plan on Fig. 7a's workload, isolating
// how much of the Fig. 7a gap is the nested-loop plan vs. alignment itself.
func BenchmarkAblation_LeftOuter_Webkit_TA_Hash(b *testing.B) {
	r, s := dataset.Webkit(10000, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.LeftOuterJoin(r, s, dataset.WebkitTheta(), align.Config{})
	}
}

// Ablation: probability computation share — the NJ pipeline without
// forming output tuples vs. the full operator.
func BenchmarkAblation_WindowsOnly_Webkit_NJ(b *testing.B) {
	r, s := dataset.Webkit(10000, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Count(core.LAWAN(core.LAWAU(core.OverlapJoin(r, s, dataset.WebkitTheta()))))
	}
}
