//go:build !race

// The race detector's instrumentation moves values to the heap, so
// allocation counts are only pinned in normal builds.

package plan

import (
	"testing"

	"tpjoin/internal/oracle"
	"tpjoin/internal/sql"
)

// TestBuildMakesNoMemo: only PlanPrepared reads the memo, so a plain
// SELECT makes none — no memo, relation snapshots, weak pointers or
// memoized estimate — and stays within 26 allocations on a filtered join.
func TestBuildMakesNoMemo(t *testing.T) {
	cat := registered(t, oracle.Webkit(2000, 1)[0])
	st, err := sql.Parse("SELECT * FROM r TP LEFT JOIN s ON r.Key = s.Key WHERE r.Key = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	sel, sess := st.(*sql.Select), &Session{}
	build := func() {
		if _, err := Build(sel, cat, sess); err != nil {
			t.Fatal(err)
		}
	}
	build() // profile the inputs once; the statistics memo serves the rest
	if n := testing.AllocsPerRun(100, build); n > 26 {
		t.Errorf("Build made %.0f allocations, want ≤ 26", n)
	}
}
