package tp

// Theta is a join condition θ over the non-temporal attributes of two
// relations: Match reports whether the pair (r, s) of facts satisfies θ.
type Theta interface {
	Match(r, s Fact) bool
}

// EquiTheta is a conjunction of column equalities r[RCols[i]] = s[SCols[i]].
// It is the common case (the paper's experiments use a.Loc = b.Loc) and
// supports hash partitioning: facts with different keys can never match.
// SQL semantics apply: a NULL never matches anything.
type EquiTheta struct {
	RCols []int
	SCols []int
}

// Equi returns the single-column equality condition r[rCol] = s[sCol].
func Equi(rCol, sCol int) EquiTheta {
	return EquiTheta{RCols: []int{rCol}, SCols: []int{sCol}}
}

// Match implements Theta.
func (e EquiTheta) Match(r, s Fact) bool {
	for i := range e.RCols {
		rv, sv := r[e.RCols[i]], s[e.SCols[i]]
		if rv.IsNull() || sv.IsNull() {
			return false
		}
		if !rv.Equal(sv) {
			return false
		}
	}
	return true
}

// RKeyHash returns the partition key of an r fact: a 64-bit FNV-1a hash
// of the canonical key encoding of its equi-key columns, computed without
// allocating. Facts whose key differs from an s fact's can never satisfy
// θ; the bool is false when the key involves a NULL (such facts match
// nothing). Equal keys always hash equal; distinct keys may collide, so
// hash buckets must be resolved with KeyMatch (probe vs. build side) or
// RKeyEqual/SKeyEqual (same side) before tuples are paired.
func (e EquiTheta) RKeyHash(f Fact) (uint64, bool) { return equiKeyHash(f, e.RCols) }

// SKeyHash returns the partition key of an s fact; see RKeyHash.
func (e EquiTheta) SKeyHash(f Fact) (uint64, bool) { return equiKeyHash(f, e.SCols) }

func equiKeyHash(f Fact, cols []int) (uint64, bool) {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		if f[c].IsNull() {
			return 0, false
		}
		h = f[c].hashKey(h)
	}
	return h, true
}

// KeyMatch reports whether an r fact and an s fact have identical equi
// keys under the strict (kind-exact) equality that the canonical key
// encoding discriminates by. Note this is deliberately NOT Match:
// hash-partitioned equi joins pair tuples by key identity, under which
// Int(2) and Float(2) differ even though Match widens numeric kinds.
func (e EquiTheta) KeyMatch(r, s Fact) bool {
	for i := range e.RCols {
		if !r[e.RCols[i]].keyEqual(s[e.SCols[i]]) {
			return false
		}
	}
	return true
}

// RKeyEqual reports strict key equality of the equi-key columns of two r
// facts (used to resolve hash collisions when grouping one relation).
func (e EquiTheta) RKeyEqual(a, b Fact) bool { return colsKeyEqual(a, b, e.RCols) }

// SKeyEqual reports strict key equality of the equi-key columns of two s
// facts; see RKeyEqual.
func (e EquiTheta) SKeyEqual(a, b Fact) bool { return colsKeyEqual(a, b, e.SCols) }

func colsKeyEqual(a, b Fact, cols []int) bool {
	for _, c := range cols {
		if !a[c].keyEqual(b[c]) {
			return false
		}
	}
	return true
}

// FuncTheta adapts an arbitrary predicate to Theta (general θ conditions:
// inequalities, band joins, ...). It cannot be hash-partitioned.
type FuncTheta func(r, s Fact) bool

// Match implements Theta.
func (f FuncTheta) Match(r, s Fact) bool { return f(r, s) }

// TrueTheta matches every pair (temporal cross product).
type TrueTheta struct{}

// Match implements Theta.
func (TrueTheta) Match(r, s Fact) bool { return true }

// Swap returns θ with the roles of the two sides exchanged, preserving the
// hash-partitioning capability of equi conditions. Used by the right/full
// outer join variants, which run the window pipeline with swapped inputs.
func Swap(t Theta) Theta {
	switch e := t.(type) {
	case EquiTheta:
		return EquiTheta{RCols: e.SCols, SCols: e.RCols}
	case swappedTheta:
		return e.inner
	default:
		return swappedTheta{inner: t}
	}
}

type swappedTheta struct{ inner Theta }

func (s swappedTheta) Match(r, t Fact) bool { return s.inner.Match(t, r) }
