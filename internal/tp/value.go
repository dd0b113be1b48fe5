// Package tp defines the temporal-probabilistic data model: text-or-NULL
// values, facts (the non-temporal attributes of a tuple), TP tuples
// (F, λ, T, p) and TP relations, together with validation and the
// point-wise expansion used as a semantic oracle in tests.
package tp

import (
	"strconv"
	"strings"
)

// Value is a single attribute value: a text string or SQL NULL. Every fact
// of the paper is text (Fig. 1a's Name/Loc/Hotel, the Webkit files, the
// Meteo metrics and stations), so there is one equality, one order and one
// hash for joins, grouping, DISTINCT and WHERE alike. The zero value is
// NULL, which is what outer joins emit for the attributes of the
// non-matching side (the "-" of the paper's Fig. 1b).
type Value struct {
	s     string
	valid bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// String_ returns a string value. (The name avoids colliding with the
// fmt.Stringer method.)
func String_(s string) Value { return Value{s: s, valid: true} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return !v.valid }

// AsString returns the string payload; it panics for NULL.
func (v Value) AsString() string {
	if !v.valid {
		panic("tp: AsString on NULL")
	}
	return v.s
}

// Equal reports whether v and o are the same value. NULL = NULL is true,
// which is what fact identity (grouping) requires; join conditions reject
// NULL keys before comparing (EquiTheta.Match).
func (v Value) Equal(o Value) bool { return v == o }

// Compare returns -1, 0, +1 with NULL first, then by string order. It is
// 0 exactly when Equal holds.
func (v Value) Compare(o Value) int {
	if v.valid != o.valid {
		if v.valid {
			return 1
		}
		return -1
	}
	return strings.Compare(v.s, o.s)
}

// String renders the value; NULL renders as "-" following Fig. 1b.
func (v Value) String() string {
	if !v.valid {
		return "-"
	}
	return v.s
}

// FNV-1a 64-bit parameters, used by the allocation-free hashed keys.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey folds a canonical encoding of v into the running FNV-1a hash h:
// tag 0 for NULL; tag 3, the length and the bytes for a string, so that
// the hash of a value sequence is prefix-free. The tags match the .tpr
// value tags and keep KeyHash values stable (TestKeyHashGolden), so hash
// partitioning and PNJ/PTA output order do not move. It allocates nothing.
func (v Value) hashKey(h uint64) uint64 {
	if !v.valid {
		return h * fnvPrime64
	}
	h = (h ^ 3) * fnvPrime64
	for u, i := uint64(len(v.s)), 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	for i := 0; i < len(v.s); i++ {
		h = (h ^ uint64(v.s[i])) * fnvPrime64
	}
	return h
}

// appendKey writes a canonical, injective encoding of v to b, used to build
// hashable fact keys.
func (v Value) appendKey(b *strings.Builder) {
	if !v.valid {
		b.WriteString("N;")
		return
	}
	b.WriteByte('S')
	b.WriteString(strconv.Itoa(len(v.s)))
	b.WriteByte(':')
	b.WriteString(v.s)
	b.WriteByte(';')
}
