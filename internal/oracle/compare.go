package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"tpjoin/internal/lineage"
	"tpjoin/internal/tp"
)

// The comparer checks two result relations structurally: schemas, facts
// with Fact.Compare (NULL is not the text "-"), intervals with
// Interval.Equal, lineage with lineage.Expr.Equal and probabilities bit
// for bit, or within crossTol across families. It builds no strings until
// a mismatch, and then renders that row only.

// crossTol is the probability tolerance of Cross and PointWise: the
// strategy families evaluate the same formulas with ∨ operands in another
// order, which moves the last ulp or two.
const crossTol = 1e-12

// Same checks got against want row for row, in order, uncoalesced, with
// identical lineage trees — operand order included — and identical
// probability bits: the mode for two runs of one strategy (EXECUTE vs
// inline SELECT, TA nested loop vs TA) and for byte-identity pins.
func Same(want, got *tp.Relation) error {
	if !slices.Equal(want.Attrs, got.Attrs) {
		return fmt.Errorf("schema %v vs %v", want.Attrs, got.Attrs)
	}
	for i := range max(want.Len(), got.Len()) {
		if i >= want.Len() || i >= got.Len() || !rowEqual(want.Tuples[i], got.Tuples[i], identical, exact) {
			return mismatch(fmt.Sprintf("row %d", i), want.Tuples, got.Tuples, i, i)
		}
	}
	return nil
}

// Bag checks got against want as multisets of uncoalesced rows with
// identical probability bits: the mode for a strategy and its
// partition-parallel form (PNJ vs NJ, PTA vs TA), which emit the same
// rows in another order.
func Bag(want, got *tp.Relation) error { return bag(want, got, exact) }

// Cross checks got against want across the strategy families (TA vs NJ)
// as multisets of uncoalesced rows: both families emit the same rows, but
// evaluate ∨ operands in another order, so probabilities may differ by
// crossTol.
func Cross(want, got *tp.Relation) error { return bag(want, got, near) }

// PointWise checks got point-wise against a tp.RefJoin-style reference:
// every fact at every time point, with its probability within crossTol.
func PointWise(ref tp.PointMap, got *tp.Relation) error {
	pm, err := tp.Expand(got)
	if err != nil {
		return err
	}
	return pm.EqualProb(ref, crossTol)
}

func exact(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func near(a, b float64) bool { return math.Abs(a-b) <= crossTol }

// identical is Expr.Equal with And/Or operands in order.
func identical(a, b *lineage.Expr) bool {
	if a == b {
		return true
	}
	if a.Hash() != b.Hash() || a.Kind() != b.Kind() || len(a.Operands()) != len(b.Operands()) {
		return false
	}
	if a.Kind() == lineage.KindVar {
		return a.Variable() == b.Variable()
	}
	for i, k := range a.Operands() {
		if !identical(k, b.Operands()[i]) {
			return false
		}
	}
	return true
}

func rowEqual(a, b tp.Tuple, lin func(a, b *lineage.Expr) bool, p func(a, b float64) bool) bool {
	return a.Fact.Compare(b.Fact) == 0 && a.T.Equal(b.T) && lin(a.Lineage, b.Lineage) && p(a.Prob, b.Prob)
}

// bagKey orders rows by fact, interval and lineage hash, which equal
// lineages share whatever their operand order.
func bagKey(a, b tp.Tuple) int {
	if c := a.Fact.Compare(b.Fact); c != 0 {
		return c
	}
	if c := a.T.Compare(b.T); c != 0 {
		return c
	}
	return cmp.Compare(a.Lineage.Hash(), b.Lineage.Hash())
}

// bag sorts copies of want's and got's rows by bagKey and pairs each want
// row off against an unused got row of the same key.
func bag(want, got *tp.Relation, p func(a, b float64) bool) error {
	if !slices.Equal(want.Attrs, got.Attrs) {
		return fmt.Errorf("schema %v vs %v", want.Attrs, got.Attrs)
	}
	w, g := slices.Clone(want.Tuples), slices.Clone(got.Tuples)
	slices.SortFunc(w, bagKey)
	slices.SortFunc(g, bagKey)
	used := make([]bool, len(g))
	j := 0 // first got row whose key is not below the current want row's
	for i, wr := range w {
		for j < len(g) && bagKey(g[j], wr) < 0 {
			if !used[j] {
				return mismatch("unexpected row", w, g, i, j)
			}
			j++
		}
		k := j
		for k < len(g) && bagKey(g[k], wr) == 0 && (used[k] || !rowEqual(wr, g[k], (*lineage.Expr).Equal, p)) {
			k++
		}
		if k == len(g) || bagKey(g[k], wr) != 0 {
			return mismatch("missing row", w, g, i, j)
		}
		used[k] = true
	}
	for j, u := range used {
		if !u {
			return mismatch("unexpected row", w, g, len(w), j)
		}
	}
	return nil
}

// mismatch renders want[i] and got[j], either of which may be past the end.
func mismatch(what string, want, got []tp.Tuple, i, j int) error {
	row := func(ts []tp.Tuple, i int) string {
		if i < len(ts) {
			return render(ts[i])
		}
		return "(none)"
	}
	return fmt.Errorf("%d vs %d rows; %s:\n  want %s\n  got  %s", len(want), len(got), what, row(want, i), row(got, j))
}

// render prints one row: values quoted and NULL spelled out, so that
// NULL and the text "-" read apart, and P with every digit.
func render(tu tp.Tuple) string {
	vals := make([]string, len(tu.Fact))
	for i, v := range tu.Fact {
		vals[i] = "NULL"
		if !v.IsNull() {
			vals[i] = strconv.Quote(v.AsString())
		}
	}
	return fmt.Sprintf("(%s) | %s | %s | %.17g", strings.Join(vals, ", "), tu.Lineage, tu.T, tu.Prob)
}
