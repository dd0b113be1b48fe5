package align

import (
	"math/rand"
	"testing"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

func paperA() *tp.Relation {
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	return a
}

func paperB() *tp.Relation {
	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)
	return b
}

var theta = tp.Equi(1, 1)

func TestAlignFragmentsPaperExample(t *testing.T) {
	a, b := paperA(), paperB()
	frags := Align(a, b, theta, Config{})
	// Ann [2,8) splits at 4, 5, 6 → [2,4) [4,5) [5,6) [6,8); Jim [7,10) stays whole.
	var ann, jim []Fragment
	for _, f := range frags {
		if f.RID == 0 {
			ann = append(ann, f)
		} else {
			jim = append(jim, f)
		}
	}
	if len(ann) != 4 {
		t.Fatalf("Ann fragments = %d, want 4: %v", len(ann), ann)
	}
	wantT := []interval.Interval{interval.New(2, 4), interval.New(4, 5), interval.New(5, 6), interval.New(6, 8)}
	wantCover := [][]int{nil, {2}, {1, 2}, {1}}
	for i, f := range ann {
		if !f.T.Equal(wantT[i]) {
			t.Errorf("fragment %d interval %v, want %v", i, f.T, wantT[i])
		}
		if len(f.Cover) != len(wantCover[i]) {
			t.Errorf("fragment %d cover %v, want %v", i, f.Cover, wantCover[i])
			continue
		}
		got := map[int]bool{}
		for _, c := range f.Cover {
			got[c] = true
		}
		for _, c := range wantCover[i] {
			if !got[c] {
				t.Errorf("fragment %d missing cover %d", i, c)
			}
		}
	}
	if len(jim) != 1 || !jim[0].T.Equal(interval.New(7, 10)) || len(jim[0].Cover) != 0 {
		t.Errorf("Jim fragment wrong: %v", jim)
	}
}

func TestFragmentsPartitionTupleInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		r := oracle.Small.Relation(rng, "r", rng.Intn(7))
		s := oracle.Small.Relation(rng, "s", rng.Intn(7))
		for _, cfg := range []Config{{}, {NestedLoop: true}} {
			frags := Align(r, s, tp.Equi(0, 0), cfg)
			byRID := make(map[int][]Fragment)
			for _, f := range frags {
				byRID[f.RID] = append(byRID[f.RID], f)
			}
			for ri := range r.Tuples {
				fs := byRID[ri]
				if len(fs) == 0 {
					t.Fatalf("trial %d: tuple %d has no fragments", trial, ri)
				}
				cur := r.Tuples[ri].T.Start
				for _, f := range fs {
					if f.T.Start != cur {
						t.Fatalf("trial %d: fragments not contiguous: %v", trial, fs)
					}
					cur = f.T.End
				}
				if cur != r.Tuples[ri].T.End {
					t.Fatalf("trial %d: fragments do not cover tuple: %v", trial, fs)
				}
			}
		}
	}
}

func TestLeftOuterMatchesReferencePaper(t *testing.T) {
	a, b := paperA(), paperB()
	for _, cfg := range []Config{{}, {NestedLoop: true}} {
		q := Join(tp.OpLeft, a, b, theta, cfg)
		if err := oracle.PointWise(tp.RefJoin(tp.OpLeft, a, b, theta), q); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
	}
}

func TestDuplicateEliminationHappens(t *testing.T) {
	// Sub-queries A and B both produce the unmatched fragments; the raw
	// row count before union must exceed the deduplicated result.
	a, b := paperA(), paperB()
	raw := CountWUO(a, b, theta, Config{}) + CountNegating(a, b, theta, Config{})
	q := Join(tp.OpLeft, a, b, theta, Config{})
	if raw <= q.Len() {
		t.Errorf("expected duplicates before union: raw=%d result=%d", raw, q.Len())
	}
	// Specifically the two unmatched fragments (Ann [2,4), Jim [7,10)) are
	// duplicated: raw = result + 2.
	if raw != q.Len()+2 {
		t.Errorf("raw=%d result=%d, want difference of exactly 2", raw, q.Len())
	}
}

func TestAllOperatorsMatchCoreRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	eq := tp.Equi(0, 0)
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for trial := 0; trial < 100; trial++ {
		r := oracle.Small.Relation(rng, "r", rng.Intn(7))
		s := oracle.Small.Relation(rng, "s", rng.Intn(7))
		op := ops[trial%len(ops)]
		cfg := Config{NestedLoop: trial%2 == 1}

		ta := Join(op, r, s, eq, cfg)
		if err := oracle.Cross(core.Join(op, r, s, eq), ta); err != nil {
			t.Fatalf("trial %d %v: TA and NJ disagree: %v\nr=%v\ns=%v", trial, op, err, r, s)
		}
		if err := oracle.PointWise(tp.RefJoin(op, r, s, eq), ta); err != nil {
			t.Fatalf("trial %d %v: TA differs from reference: %v", trial, op, err)
		}
	}
}

func TestAntiJoinSchema(t *testing.T) {
	a, b := paperA(), paperB()
	q := Join(tp.OpAnti, a, b, theta, Config{})
	if len(q.Attrs) != 2 {
		t.Errorf("anti join schema must be r's, got %v", q.Attrs)
	}
	for _, tu := range q.Tuples {
		if len(tu.Fact) != 2 {
			t.Errorf("anti join fact arity = %d", len(tu.Fact))
		}
	}
}

func TestJoinPanicsOnUnknownOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Join(tp.Op(42), paperA(), paperB(), theta, Config{})
}

func TestReplicationIsMeasurable(t *testing.T) {
	// TA replicates: fragment count strictly exceeds tuple count when
	// tuples partially overlap matching tuples.
	a, b := paperA(), paperB()
	frags := Align(a, b, theta, Config{})
	if len(frags) <= a.Len() {
		t.Errorf("expected replication: %d fragments for %d tuples", len(frags), a.Len())
	}
}
