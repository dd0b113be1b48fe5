package tp

import (
	"sync"
	"sync/atomic"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
)

// counted returns a build function that records how often it ran and
// returns the relation's length at build time.
func counted(r *Relation, builds *int) func() any {
	return func() any {
		*builds++
		return r.Len()
	}
}

// TestDerivedRebuildsOnStampMove pins the memo contract: a current value
// is served as-is, and every way the Stamp can move — Append,
// AppendDerived, a version-only SortByStart, a length-only direct append
// to Tuples — forces a rebuild on next use.
func TestDerivedRebuildsOnStampMove(t *testing.T) {
	r := paperA()
	builds := 0
	get := func() any { return r.Derived("k", counted(r, &builds)) }

	get()
	if get(); builds != 1 {
		t.Fatalf("repeat use rebuilt: %d builds, want 1", builds)
	}
	for _, step := range []struct {
		name   string
		mutate func()
	}{
		{"Append", func() { r.Append(Strings("Ann", "WEN"), interval.New(20, 30), 0.5) }},
		{"AppendDerived", func() {
			r.AppendDerived(Strings("Jim", "ZAK"), lineage.VarExpr(lineage.Var{Rel: "a", ID: 1}), interval.New(40, 50), 0.7)
		}},
		{"SortByStart", r.SortByStart},
		{"direct append", func() { r.Tuples = append(r.Tuples, r.Tuples[0]) }},
	} {
		before, stamp := builds, r.Stamp()
		step.mutate()
		if r.Stamp() == stamp {
			t.Fatalf("%s: Stamp did not move", step.name)
		}
		if got := get(); builds != before+1 || got != r.Len() {
			t.Errorf("%s: %d builds (want %d), value %v (want %d)", step.name, builds, before+1, got, r.Len())
		}
		if get(); builds != before+1 {
			t.Errorf("%s: rebuilt value not memoized", step.name)
		}
	}
}

// TestDerivedKeysIndependent: each key holds its own value, and moving the
// Stamp rebuilds each key on its own next use.
func TestDerivedKeysIndependent(t *testing.T) {
	r := paperA()
	var a, b int
	r.Derived("a", counted(r, &a))
	r.Derived("b", counted(r, &b))
	r.Derived("a", counted(r, &a))
	if a != 1 || b != 1 {
		t.Fatalf("builds a=%d b=%d, want 1 each", a, b)
	}
	if v := r.Derived("a", func() any { return "other" }); v != 2 {
		t.Errorf("key a = %v, want the memoized 2", v)
	}
	r.SortByStart()
	r.Derived("a", counted(r, &a))
	if a != 2 || b != 1 {
		t.Errorf("after sort, using only a: builds a=%d b=%d, want 2 and 1", a, b)
	}
	if r.Clone().Derived("a", func() any { return "clone" }) != "clone" {
		t.Error("a clone must start with an empty memo")
	}
}

// TestDerivedConcurrentFirstUse: 16 goroutines racing on the first use of
// one key all get a valid value, and later uses hit the memo. Meaningful
// mainly under `go test -race`.
func TestDerivedConcurrentFirstUse(t *testing.T) {
	r := paperA()
	var builds atomic.Int64
	build := func() any {
		builds.Add(1)
		return r.Len()
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, key := range []string{"x", "y"} {
				if v := r.Derived(key, build); v != r.Len() {
					t.Errorf("Derived(%q) = %v, want %d", key, v, r.Len())
				}
			}
		}()
	}
	wg.Wait()
	n := builds.Load()
	if n < 2 || n > 32 {
		t.Fatalf("%d builds for 2 keys × 16 goroutines", n)
	}
	r.Derived("x", build)
	if builds.Load() != n {
		t.Error("use after the race rebuilt")
	}
}
