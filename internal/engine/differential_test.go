package engine

// The cross-strategy differential harness: every physical join strategy
// must compute the same temporal-probabilistic result for every join
// operator, on seeded dataset workloads and on adversarial input
// profiles. Each strategy is a column held to a reference column by one
// oracle comparer call, in the strictest mode the pair allows:
//   - TA vs NJ (oracle.Cross): the same rows as a bag, uncoalesced —
//     ∨ operand order moves P by an ulp at most;
//   - PNJ vs NJ and PTA vs TA (oracle.Bag): the same rows in
//     partition-major order, bit for bit;
//   - TA under the nested-loop plan vs TA (oracle.Same): the same tail
//     over the scalar aligner, row for row.
// This is what lets a perf change refactor any one strategy's hot path
// without silently diverging from the semantics the paper defines.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

// column is one strategy of the harness and the column it is checked
// against (ref, an index into columns) with cmp; the reference NJ has
// none.
type column struct {
	name  string
	strat Strategy
	nl    bool
	ref   int
	cmp   func(want, got *tp.Relation) error
}

var columns = []column{
	{"NJ", StrategyNJ, false, -1, nil},
	{"TA", StrategyTA, false, 0, oracle.Cross},
	{"PNJ", StrategyPNJ, false, 0, oracle.Bag},
	{"PTA", StrategyPTA, false, 1, oracle.Bag},
	{"TA/nl", StrategyTA, true, 1, oracle.Same},
}

var allOps = []tp.Op{tp.OpInner, tp.OpLeft, tp.OpRight, tp.OpFull, tp.OpAnti}

// run executes one TP join through the executor under c's strategy.
func (c column) run(t *testing.T, op tp.Op, r, s *tp.Relation, theta tp.EquiTheta) *tp.Relation {
	t.Helper()
	j := NewTPJoin(op, NewScan(r), NewScan(s), theta, c.strat, align.Config{NestedLoop: c.nl})
	if c.strat == StrategyPNJ || c.strat == StrategyPTA {
		j.SetWorkers(3)
	}
	out, err := Run(j, "diff")
	if err != nil {
		t.Fatalf("%s/%v: %v", c.name, op, err)
	}
	return out
}

// checkColumns runs op under every column, checks each against its
// reference and returns the NJ result.
func checkColumns(t *testing.T, label string, op tp.Op, r, s *tp.Relation, theta tp.EquiTheta) *tp.Relation {
	t.Helper()
	out := make([]*tp.Relation, len(columns))
	for i, c := range columns {
		out[i] = c.run(t, op, r, s, theta)
		if c.cmp == nil {
			continue
		}
		if err := c.cmp(out[c.ref], out[i]); err != nil {
			t.Errorf("%s %v %s-vs-%s: %v", label, op, c.name, columns[c.ref].name, err)
		}
	}
	return out[0]
}

// TestDifferentialStrategies sweeps the dataset generators behind
// cmd/tpgen at two seeds each, sized to produce tens of thousands of
// windows while keeping the TA baseline testable.
func TestDifferentialStrategies(t *testing.T) {
	for _, in := range append(oracle.Webkit(3000, 3, 11), oracle.Meteo(900, 3, 11)...) {
		for _, op := range []tp.Op{tp.OpInner, tp.OpLeft, tp.OpFull, tp.OpAnti} {
			if checkColumns(t, in.Name, op, in.R, in.S, in.Theta).Len() == 0 {
				t.Fatalf("%s %v: empty reference result, workload too small", in.Name, op)
			}
		}
	}
}

// TestDifferentialStrategiesAdversarial sweeps the oracle's adversarial
// profiles at five seeds through all five operators; where every
// endpoint is finite, NJ is also held point-wise to tp.RefJoin.
func TestDifferentialStrategiesAdversarial(t *testing.T) {
	theta := tp.Equi(0, 0)
	for _, pr := range oracle.Profiles {
		for seed := int64(1); seed <= 5; seed++ {
			r, s := pr.Make(rand.New(rand.NewSource(seed)))
			if pr.Derived {
				r = columns[0].run(t, tp.OpLeft, r, s, theta)
			}
			label := fmt.Sprintf("%s/seed=%d", pr.Name, seed)
			for _, op := range allOps {
				nj := checkColumns(t, label, op, r, s, theta)
				if pr.Infinite {
					continue
				}
				if err := oracle.PointWise(tp.RefJoin(op, r, s, theta), nj); err != nil {
					t.Errorf("%s %v NJ-vs-RefJoin: %v", label, op, err)
				}
			}
		}
	}
}

// TestStrategiesAgreeOnEmptyAndNullKeys: the empty string is a key like
// any other and NULL is no key at all. Every strategy must agree
// point-wise with the tp.RefJoin oracle on keys that are "" or NULL, for
// all five operators.
func TestStrategiesAgreeOnEmptyAndNullKeys(t *testing.T) {
	r := tp.NewRelation("r", "Name", "K")
	r.Append(tp.Strings("r1", ""), interval.New(0, 6), 0.6)
	r.Append(tp.Fact{tp.String_("r2"), tp.Null()}, interval.New(1, 7), 0.7)
	r.Append(tp.Strings("r3", "x"), interval.New(2, 9), 0.8)
	s := tp.NewRelation("s", "Hotel", "K")
	s.Append(tp.Strings("s1", ""), interval.New(3, 8), 0.5)
	s.Append(tp.Fact{tp.String_("s2"), tp.Null()}, interval.New(0, 9), 0.9)
	s.Append(tp.Strings("s3", "x"), interval.New(4, 5), 0.4)
	theta := tp.Equi(1, 1)

	for _, op := range allOps {
		ref := tp.RefJoin(op, r, s, theta)
		for _, c := range columns {
			if err := oracle.PointWise(ref, c.run(t, op, r, s, theta)); err != nil {
				t.Errorf("%v %s disagrees with RefJoin: %v", op, c.name, err)
			}
		}
	}

	// The inner join pairs "" with "" and x with x, and NULL with nothing.
	var pairs []string
	for _, tu := range columns[0].run(t, tp.OpInner, r, s, theta).Tuples {
		pairs = append(pairs, tu.Fact[0].String()+"-"+tu.Fact[2].String())
	}
	sort.Strings(pairs)
	if got := strings.Join(pairs, " "); got != "r1-s1 r3-s3" {
		t.Errorf("inner join pairs %q, want %q", got, "r1-s1 r3-s3")
	}
}
