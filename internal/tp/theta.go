package tp

// EquiTheta is the join condition θ over the non-temporal attributes of
// two relations: a conjunction of column equalities r[RCols[i]] =
// s[SCols[i]]. It is the one condition kind the engine evaluates — the
// SQL dialect builds only ON equalities, and the paper's experiments join
// on a.Loc = b.Loc — and it supports hash partitioning: facts with
// different keys can never match. SQL semantics apply: a NULL never
// matches anything.
type EquiTheta struct {
	RCols []int
	SCols []int
}

// Equi returns the single-column equality condition r[rCol] = s[sCol].
func Equi(rCol, sCol int) EquiTheta {
	return EquiTheta{RCols: []int{rCol}, SCols: []int{sCol}}
}

// Match reports whether the pair (r, s) of facts satisfies θ.
func (e EquiTheta) Match(r, s Fact) bool {
	for i := range e.RCols {
		if rv := r[e.RCols[i]]; rv.IsNull() || !rv.Equal(s[e.SCols[i]]) {
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
// hash buckets must be resolved with Match (probe vs. build side) or
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

// RKeyEqual reports equality of the equi-key columns of two r facts (used
// to resolve hash collisions when grouping one relation).
func (e EquiTheta) RKeyEqual(a, b Fact) bool { return colsKeyEqual(a, b, e.RCols) }

// SKeyEqual reports equality of the equi-key columns of two s facts; see
// RKeyEqual.
func (e EquiTheta) SKeyEqual(a, b Fact) bool { return colsKeyEqual(a, b, e.SCols) }

func colsKeyEqual(a, b Fact, cols []int) bool {
	for _, c := range cols {
		if !a[c].Equal(b[c]) {
			return false
		}
	}
	return true
}

// Swap returns θ with the roles of the two sides exchanged. Used by the
// right/full outer join variants, which run the window pipeline with
// swapped inputs.
func Swap(e EquiTheta) EquiTheta {
	return EquiTheta{RCols: e.SCols, SCols: e.RCols}
}
