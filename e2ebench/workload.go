package main

import (
	"fmt"
	"math/rand"

	"tpjoin/internal/dataset"
	"tpjoin/internal/tp"
)

// stmt is one input line of an op.
type stmt struct {
	text string
	// loose marks output that carries timings or query ids (EXPLAIN
	// ANALYZE): the gate checks that the message is there, not its
	// checksum.
	loose bool
}

// workload is one set of inputs the benchmark runs. An op is one pass of
// script over one session.
type workload struct {
	name string
	why  string
	gen  func(n int, seed int64) (r, s *tp.Relation)
	n    int  // total tuples of r and s
	fig  bool // also preload the paper's Fig. 1a relations a and b
	// session is issued once per session before its first op.
	session []string
	// twin, when set, is the gate's cross-strategy check (meteo_nj ↔
	// meteo_ta).
	twin *twinCheck
	// wantRows makes a SELECT or EXECUTE that returns no rows an error: a
	// script statement that silently matches nothing measures nothing.
	wantRows bool
	// ta says the op's join runs on the alignment baseline, so the traced
	// run derives lineage.form_ms from the align spans, not the core ones.
	ta bool
	// script builds one op from the seeded generator, the generated r and
	// the name of the table this session may create and drop. layerSQL is
	// the SELECT among them that the traced run replays layer by layer
	// (parse, build, run) in process.
	script func(rng *rand.Rand, r *tp.Relation, table string) (pass []stmt, layerSQL string)
}

// twinCheck is a statement that must return the same rows, once both
// results are coalesced, under the workload's own session set-up and under
// another one.
type twinCheck struct {
	session []string
	sql     string
}

const (
	joinSQL = "SELECT * FROM r TP LEFT JOIN s ON r.Key = s.Key"
	// The Meteo statement keeps the eight most probable rows. The filter
	// alone would return a seed-dependent handful (7 to 18 at p >= 0.9),
	// and with it response bytes that differ by a factor of two between
	// seeds; ORDER BY is evaluated after the filter, on a few dozen rows.
	meteoFilter = joinSQL + " WHERE p >= 0.85"
	meteoSQL    = meteoFilter + " ORDER BY P DESC LIMIT 8"
	preparedSQL = joinSQL + " WHERE r.Key = ?"
	figLeftSQL  = "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"
	figAntiSQL  = "SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc"
)

func single(sql string) func(*rand.Rand, *tp.Relation, string) ([]stmt, string) {
	return func(*rand.Rand, *tp.Relation, string) ([]stmt, string) { return []stmt{{text: sql}}, sql }
}

// mixedKeys is how many EXECUTEs one mixed_script pass issues; their
// parameters are the only part of any op drawn from the seed directly.
const mixedKeys = 3

// mixedScript is one pass of mixed_script. Every pass of a run is the same
// statement list, so per-op counts do not depend on how many passes fit
// into the measured time.
func mixedScript(rng *rand.Rand, r *tp.Relation, table string) ([]stmt, string) {
	s := []stmt{
		{text: "SET strategy = auto"},
		{text: "SET join_workers = 0"},
		{text: "SELECT * FROM a TP JOIN b ON a.Loc = b.Loc"},
		{text: figLeftSQL},
		{text: "SELECT * FROM a TP RIGHT JOIN b ON a.Loc = b.Loc"},
		{text: "SELECT * FROM a TP FULL JOIN b ON a.Loc = b.Loc"},
		{text: figAntiSQL},
	}
	var layerSQL string
	for i := 0; i < mixedKeys; i++ {
		// A key some r tuple carries, so the filtered join returns rows.
		key := r.Tuples[rng.Intn(r.Len())].Fact[0]
		s = append(s, stmt{text: fmt.Sprintf("EXECUTE q ('%s')", key)})
		if i == 0 {
			// The prepared join with its first parameter bound.
			layerSQL = fmt.Sprintf("%s WHERE r.Key = '%s'", joinSQL, key)
		}
	}
	s = append(s,
		stmt{text: "EXPLAIN " + joinSQL},
		stmt{text: "EXPLAIN ANALYZE " + figLeftSQL, loose: true},
		stmt{text: "SET strategy = pnj"},
		stmt{text: "SET join_workers = 2"},
		stmt{text: figLeftSQL},
		stmt{text: "SET strategy = pta"},
		stmt{text: figAntiSQL},
		stmt{text: "SET strategy = auto"},
		stmt{text: `\stats r`},
		stmt{text: "CREATE TABLE " + table + " AS SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key WHERE r.Key < 'file00020'"},
		stmt{text: "SELECT * FROM " + table + " TP LEFT JOIN s ON " + table + ".Key = s.Key"},
		stmt{text: "SELECT * FROM r TP JOIN " + table + " ON r.Key = " + table + ".Key WHERE p >= 0.5"},
		stmt{text: `\drop ` + table},
	)
	return s, layerSQL
}

// workloads returns the four workloads in their checked-in sizes.
func workloads() []*workload {
	return []*workload{
		{
			name: "webkit_wire",
			why:  "cheap join, 19k-row 2.2 MB result: server encode, lineage rendering, the wire and client decode do most of the work",
			gen:  dataset.Webkit, n: 12_000,
			script: single(joinSQL),
		},
		{
			name: "meteo_nj",
			why:  "non-selective join filtered to a handful of rows: core windows, lineage formation and probability evaluation are the whole bill",
			gen:  dataset.Meteo, n: 4_500,
			session: []string{"SET strategy = nj"},
			twin:    &twinCheck{session: []string{"SET strategy = ta"}, sql: meteoFilter},
			script:  single(meteoSQL),
		},
		{
			name: "meteo_ta",
			why:  "same data, statement and result bytes as meteo_nj on the alignment baseline: swaps core for align and nothing else",
			gen:  dataset.Meteo, n: 4_500,
			session: []string{"SET strategy = ta"},
			twin:    &twinCheck{session: []string{"SET strategy = nj"}, sql: meteoFilter},
			ta:      true,
			script:  single(meteoSQL),
		},
		{
			name: "mixed_script",
			why:  "23 small statements per pass incl. EXECUTE, EXPLAIN, parallel joins and CREATE/DROP: per-statement fixed cost and cold caches dominate",
			// The relations are a fixture like a and b; the seed draws the
			// EXECUTE parameters. With so few tuples a reseeded relation
			// moves the result sizes, and with them every count of the
			// pass, by ±8 %.
			gen: func(n int, _ int64) (r, s *tp.Relation) { return dataset.Webkit(n, 1) },
			n:   2_000, fig: true,
			session:  []string{"PREPARE q AS " + preparedSQL},
			script:   mixedScript,
			wantRows: true,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
