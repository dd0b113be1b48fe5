package core

import (
	"slices"
	"strconv"

	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// OverlapJoin computes the conventional outer join r ⟕_{θo∧θ} s of the
// paper's Section III-A: for every tuple of r, the overlapping windows
// against all matching tuples of s (sorted by starting point), or a single
// unmatched window spanning the tuple's whole interval when nothing
// matches. Every window is enhanced with the original interval of its r
// tuple (Window.RT) and the tuple's identity (Window.RID), which is the
// grouping the downstream sweeps rely on.
//
// The join hash-partitions s once by its equi key (build side) and probes
// per r tuple. The output streams one r-tuple group at a time: memory is
// bounded by the largest per-tuple match set, not by the result size.
func OverlapJoin(r, s *tp.Relation, theta tp.EquiTheta) Iterator {
	return &hashOverlapJoin{r: r, s: s, eq: theta, table: cachedKeyTable(s, theta)}
}

// keySlot is one distinct (interned) equi key of the build side in the
// join's open-addressing dictionary: a representative tuple for exact key
// comparison (distinct keys can share a 64-bit hash, so every probe must
// verify), and the key's bucket as a span of the flat order slice. rep1 is
// the representative index + 1; 0 marks an empty slot.
type keySlot struct {
	hash uint64
	rep1 int32
	lo   int32
	n    int32 // member count during build, then fill cursor, finally count
}

// keyTable dictionary-encodes the equi-key column(s) of the build relation
// once per join: every distinct key becomes one slot, addressed by its
// 64-bit hash with linear probing, and all bucket members live in a single
// flat slice. Building it allocates exactly three slices regardless of key
// count, and probing it is one or two array accesses — no map, no string
// keys.
type keyTable struct {
	slots []keySlot
	mask  uint64
	order []int32 // all build tuples, bucketed per key, (T, index)-sorted
}

func buildKeyTable(s *tp.Relation, eq tp.EquiTheta) *keyTable {
	size := uint64(8)
	for size < 2*uint64(len(s.Tuples)) {
		size *= 2 // ≤ 50% load factor keeps probe chains short
	}
	t := &keyTable{slots: make([]keySlot, size), mask: size - 1}

	// Pass 1: claim one slot per distinct key, counting members and
	// remembering each tuple's slot so later passes probe nothing. Like
	// the probe side, consecutive tuples usually share their key (chain
	// order), so one key comparison frequently replaces the hash + table
	// probe.
	slotOf := make([]int32, len(s.Tuples))
	valid := 0
	var lastFact tp.Fact
	lastSlot := int32(-1)
	for i := range s.Tuples {
		f := s.Tuples[i].Fact
		if lastFact == nil || !eq.SKeyEqual(f, lastFact) {
			lastFact = f
			lastSlot = -1
			if h, ok := eq.SKeyHash(f); ok {
				lastSlot = int32(t.findOrClaim(s, eq, h, int32(i)))
			}
		}
		slotOf[i] = lastSlot
		if lastSlot >= 0 {
			t.slots[lastSlot].n++
			valid++
		}
	}
	// Pass 2: prefix-sum the counts into bucket offsets.
	off := int32(0)
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.rep1 == 0 {
			continue
		}
		sl.lo = off
		off += sl.n
		sl.n = 0 // reused as the fill cursor
	}
	// Pass 3: scatter the tuple indexes into their buckets, in index order.
	t.order = make([]int32, valid)
	for i := range s.Tuples {
		if slotOf[i] < 0 {
			continue
		}
		sl := &t.slots[slotOf[i]]
		t.order[sl.lo+sl.n] = int32(i)
		sl.n++
	}
	// Pass 4: order each bucket by starting point. A plain sort with an
	// explicit index tie-break replaces the former stable sort (buckets
	// were filled in index order, so the tie-break reproduces it); the
	// generic sort avoids sort.Slice's per-call reflection allocation.
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.rep1 == 0 || sl.n < 2 {
			continue
		}
		slices.SortFunc(t.order[sl.lo:sl.lo+sl.n], func(a, b int32) int {
			if c := s.Tuples[a].T.Compare(s.Tuples[b].T); c != 0 {
				return c
			}
			return int(a) - int(b)
		})
	}
	return t
}

// findOrClaim returns the slot index of s tuple i's key, claiming an empty
// slot on first sight. Linear probing; 64-bit hash collisions between
// distinct keys simply occupy the next free slot and are disambiguated by
// the SKeyEqual verification.
func (t *keyTable) findOrClaim(s *tp.Relation, eq tp.EquiTheta, h uint64, i int32) uint64 {
	for idx := h & t.mask; ; idx = (idx + 1) & t.mask {
		sl := &t.slots[idx]
		if sl.rep1 == 0 {
			sl.hash = h
			sl.rep1 = i + 1
			return idx
		}
		if sl.hash == h && eq.SKeyEqual(s.Tuples[sl.rep1-1].Fact, s.Tuples[i].Fact) {
			return idx
		}
	}
}

// lookup returns the bucket of build tuples whose key matches the probe
// fact, or nil.
func (t *keyTable) lookup(s *tp.Relation, eq tp.EquiTheta, h uint64, f tp.Fact) []int32 {
	for idx := h & t.mask; ; idx = (idx + 1) & t.mask {
		sl := &t.slots[idx]
		if sl.rep1 == 0 {
			return nil
		}
		if sl.hash == h && eq.Match(f, s.Tuples[sl.rep1-1].Fact) {
			return t.order[sl.lo : sl.lo+sl.n]
		}
	}
}

type hashOverlapJoin struct {
	r     *tp.Relation
	s     *tp.Relation
	eq    tp.EquiTheta
	table *keyTable
	ri    int
	out   queue

	// Last-probe memo: relations are commonly ordered by fact chains
	// (consecutive r tuples share their equi key), so one key comparison
	// frequently replaces the hash + table probe.
	lastFact   tp.Fact
	lastBucket []int32
}

// bucketFor returns the build-side bucket matching the probe fact's equi
// key (nil when the key is NULL or absent).
func (j *hashOverlapJoin) bucketFor(f tp.Fact) []int32 {
	if j.lastFact != nil && j.eq.RKeyEqual(f, j.lastFact) {
		return j.lastBucket
	}
	j.lastFact = f
	j.lastBucket = nil
	if h, ok := j.eq.RKeyHash(f); ok {
		j.lastBucket = j.table.lookup(j.s, j.eq, h, f)
	}
	return j.lastBucket
}

// NextBatch implements Iterator. Windows are emitted straight into buf;
// the queue only holds the overflow of an r tuple whose window burst
// exceeds the space left, which saves the push/pop copy pair per window.
func (j *hashOverlapJoin) NextBatch(buf []window.Window) int {
	n := j.out.popInto(buf)
	for n < len(buf) {
		if j.ri >= len(j.r.Tuples) {
			return n
		}
		rt := &j.r.Tuples[j.ri]
		matched := false
		for _, si := range j.bucketFor(rt.Fact) {
			st := &j.s.Tuples[si]
			if st.T.Start >= rt.T.End {
				break
			}
			if !st.T.Overlaps(rt.T) {
				continue
			}
			matched = true
			w := window.Window{
				Fr: rt.Fact, Fs: st.Fact,
				T:  rt.T.Intersect(st.T),
				Lr: rt.Lineage, Ls: st.Lineage,
				RID: j.ri, RT: rt.T,
			}
			if n < len(buf) {
				buf[n] = w
				n++
			} else {
				j.out.push(w)
			}
		}
		if !matched {
			buf[n] = window.Window{
				Fr: rt.Fact, T: rt.T, Lr: rt.Lineage,
				RID: j.ri, RT: rt.T,
			}
			n++
		}
		j.ri++
	}
	return n
}

// cachedKeyTable returns the relation's key dictionary for the given equi
// columns, building it at most once per relation (the "dictionary-encode
// once per relation" fast path: repeated joins against a catalog relation
// reuse the interned keys).
func cachedKeyTable(s *tp.Relation, eq tp.EquiTheta) *keyTable {
	sub := "dict:"
	for _, c := range eq.SCols {
		sub += strconv.Itoa(c) + ","
	}
	return s.Derived(sub, func() any { return buildKeyTable(s, eq) }).(*keyTable)
}
