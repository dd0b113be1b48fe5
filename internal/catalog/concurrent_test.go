package catalog

import (
	"fmt"
	"sync"
	"testing"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

func demoRelation(name string) *tp.Relation {
	r := tp.NewRelation(name, "K", "V")
	r.Append(tp.Strings("x", "1"), interval.New(0, 5), 0.5)
	r.Append(tp.Strings("y", "2"), interval.New(3, 9), 0.9)
	return r
}

// TestConcurrentAccess hammers one catalog from many goroutines mixing
// CREATE TABLE-style registration, lookups (SELECT), listing, drops and
// the derived-structure memo of the shared relation (\stats, a join) —
// the access pattern of concurrent tpserverd sessions. It is meaningful
// mainly under `go test -race`.
func TestConcurrentAccess(t *testing.T) {
	c := New()
	if err := c.Register(demoRelation("shared")); err != nil {
		t.Fatal(err)
	}
	const (
		sessions = 16
		rounds   = 200
	)
	fresh := demoRelation("shared")
	wantJoin := core.Join(tp.OpLeft, fresh, fresh, tp.Equi(0, 0)).Len()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			private := fmt.Sprintf("t%d", s)
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0: // CREATE TABLE private
					if err := c.Register(demoRelation(private)); err != nil {
						t.Errorf("register %s: %v", private, err)
					}
				case 1: // CREATE TABLE shared (replace under contention)
					if err := c.Register(demoRelation("shared")); err != nil {
						t.Errorf("register shared: %v", err)
					}
				case 2: // SELECT: lookup + full read of the snapshot
					rel, err := c.Lookup("shared")
					if err != nil {
						t.Errorf("lookup shared: %v", err)
						continue
					}
					n := 0
					for _, tu := range rel.Tuples {
						n += len(tu.Fact)
					}
					if n == 0 {
						t.Error("shared relation read empty")
					}
				case 3: // \d
					if names := c.Names(); len(names) == 0 {
						t.Error("names empty")
					}
					// \stats and a self-join share shared's memo across sessions.
					rel, err := c.Lookup("shared")
					if err != nil {
						t.Errorf("lookup shared: %v", err)
						continue
					}
					if st := stats.Of(rel); st.Tuples != 2 {
						t.Errorf("stats of shared: %d tuples, want 2", st.Tuples)
					}
					if out := core.Join(tp.OpLeft, rel, rel, tp.Equi(0, 0)); out.Len() != wantJoin {
						t.Errorf("shared ⟕ shared: %d tuples, want %d", out.Len(), wantJoin)
					}
				case 4: // \drop private
					c.Drop(private)
				}
			}
		}(s)
	}
	wg.Wait()
	if _, err := c.Lookup("shared"); err != nil {
		t.Fatalf("shared relation must survive: %v", err)
	}
}

// TestLookupSnapshotStable checks the copy-on-read contract: a relation
// obtained before a same-name re-registration keeps its contents.
func TestLookupSnapshotStable(t *testing.T) {
	c := New()
	r1 := demoRelation("r")
	if err := c.Register(r1); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	r2 := tp.NewRelation("r", "K", "V")
	r2.Append(tp.Strings("z", "9"), interval.New(1, 2), 0.1)
	if err := c.Register(r2); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("old snapshot mutated: %d tuples, want 2", got.Len())
	}
	now, err := c.Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	if now.Len() != 1 {
		t.Errorf("new registration not visible: %d tuples, want 1", now.Len())
	}
}
