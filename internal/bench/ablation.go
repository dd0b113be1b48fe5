package bench

import (
	"fmt"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/tp"
)

// point times f as an ablation figure's point: x is the swept parameter
// × 1000 (Format prints the size axis in K).
func point(x int, opt Options, f func()) Point {
	ns, _, _ := measure(opt.repeats(), f)
	return Point{N: x, Millis: float64(ns) / 1e6}
}

// synthetic generates an ablation's two inputs of n total tuples, joined
// on the key: everything but the swept key and group counts is fixed.
func synthetic(n, keys, groups int, groupPrefix string, seed int64) (r, s *tp.Relation, theta tp.EquiTheta) {
	gen := func(name string, n int, seed int64) *tp.Relation {
		return dataset.Generate(dataset.Config{
			Name: name, N: n, Keys: keys, KeyPrefix: "k",
			Groups: groups, GroupPrefix: groupPrefix,
			MeanDur: 50, MeanGap: 8, Seed: seed,
		})
	}
	return gen("r", n/2, seed), gen("s", n-n/2, seed+1), tp.Equi(0, 0)
}

// AblationSelectivity sweeps the number of distinct join keys at a fixed
// input size, interpolating between the Webkit regime (many keys,
// selective θ) and the Meteo regime (few keys, non-selective θ). The
// paper attributes Meteo's higher runtimes to exactly this parameter;
// the ablation isolates it from all other dataset differences.
func AblationSelectivity(n int, keyCounts []int, opt Options) Figure {
	if len(keyCounts) == 0 {
		keyCounts = []int{10, 40, 160, 640, 2560}
	}
	fig := Figure{
		ID:      "S1",
		Title:   fmt.Sprintf("Selectivity ablation (n=%d, distinct keys varied)", n),
		Dataset: "synthetic",
	}
	nj := Series{Name: "NJ"}
	ta := Series{Name: "TA"}
	for _, keys := range keyCounts {
		r, s, theta := synthetic(n, keys, 4, "g", opt.seed())
		nj.Points = append(nj.Points, point(keys*1000, opt, func() {
			core.LeftOuterJoin(r, s, theta)
		}))
		ta.Points = append(ta.Points, point(keys*1000, opt, func() {
			align.LeftOuterJoin(r, s, theta, align.Config{})
		}))
	}
	fig.Series = []Series{nj, ta}
	return fig
}

// AblationGroupSize sweeps the number of concurrently valid tuples per
// fact chain (the Groups parameter), which controls how many s tuples a
// negating window must disjoin — LAWAN's priority-queue depth.
func AblationGroupSize(n int, groupCounts []int, opt Options) Figure {
	if len(groupCounts) == 0 {
		groupCounts = []int{1, 4, 16, 64}
	}
	fig := Figure{
		ID:      "S2",
		Title:   fmt.Sprintf("Group-size ablation (n=%d, stations per metric varied)", n),
		Dataset: "synthetic",
	}
	nj := Series{Name: "NJ-WUON"}
	for _, g := range groupCounts {
		r, s, theta := synthetic(n, 20, g, "st", opt.seed())
		nj.Points = append(nj.Points, point(g*1000, opt, func() {
			core.Count(core.LAWAN(core.LAWAU(core.OverlapJoin(r, s, theta))))
		}))
	}
	fig.Series = []Series{nj}
	return fig
}
