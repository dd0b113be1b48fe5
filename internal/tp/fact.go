package tp

import "strings"

// Fact is the vector of non-temporal attribute values of a TP tuple — the
// F component of the paper's schema (F, λ, T, p).
type Fact []Value

// Strings builds a fact of string values.
func Strings(vals ...string) Fact {
	f := make(Fact, len(vals))
	for i, s := range vals {
		f[i] = String_(s)
	}
	return f
}

// Nulls returns a fact of n NULL values (the missing side of an outer join).
func Nulls(n int) Fact {
	return make(Fact, n)
}

// Key returns a canonical string encoding of the fact, injective over
// facts, usable as a map key for grouping and hashing.
func (f Fact) Key() string {
	var b strings.Builder
	for _, v := range f {
		v.appendKey(&b)
	}
	return b.String()
}

// KeyHash returns a 64-bit FNV-1a hash of the fact's canonical key
// encoding without allocating. Equal facts always hash equal; hash
// collisions between distinct facts are possible, so grouping by KeyHash
// must resolve buckets with Equal.
func (f Fact) KeyHash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range f {
		h = v.hashKey(h)
	}
	return h
}

// Equal reports attribute-wise equality (NULLs compare equal, as grouping
// requires).
func (f Fact) Equal(o Fact) bool {
	if len(f) != len(o) {
		return false
	}
	for i := range f {
		if !f[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders facts attribute-wise.
func (f Fact) Compare(o Fact) int {
	n := len(f)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := f[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(f) < len(o):
		return -1
	case len(f) > len(o):
		return 1
	default:
		return 0
	}
}

// Concat returns the concatenation of f and o as a new fact.
func (f Fact) Concat(o Fact) Fact {
	out := make(Fact, 0, len(f)+len(o))
	out = append(out, f...)
	out = append(out, o...)
	return out
}

// Clone returns a copy of f.
func (f Fact) Clone() Fact {
	out := make(Fact, len(f))
	copy(out, f)
	return out
}

// String renders the fact as comma-separated values, e.g. "Ann, ZAK, -".
func (f Fact) String() string {
	parts := make([]string, len(f))
	for i, v := range f {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}
