package tp

// KeyGroups groups values under hashed fact keys with exact-equality
// collision resolution: a 64-bit key hash addresses a bucket, and the
// group inside the bucket is resolved by comparing against the group's
// first fact with a caller-supplied equality (Fact.Equal for whole facts,
// EquiTheta.SKeyEqual/Match for equi-key columns). Groups keep
// first-seen order. It is the shared building block for the simple
// grouping call sites (validation, projection, the TA baseline's build
// side); the hash join's hot path uses its own flat keyTable instead.
type KeyGroups[V any] struct {
	byHash map[uint64][]int32
	groups []KeyGroup[V]
}

// KeyGroup is one distinct key: the first fact seen with it and the
// values added under it.
type KeyGroup[V any] struct {
	Fact Fact
	Vals []V
}

// NewKeyGroups returns an empty grouping.
func NewKeyGroups[V any]() *KeyGroups[V] {
	return &KeyGroups[V]{byHash: make(map[uint64][]int32)}
}

// Find returns the index of f's group under hash h, or -1. eq compares
// a group's stored fact against f; it must be consistent with h (facts
// it calls equal hash identically).
func (g *KeyGroups[V]) Find(h uint64, f Fact, eq func(group, probe Fact) bool) int {
	for _, gi := range g.byHash[h] {
		if eq(g.groups[gi].Fact, f) {
			return int(gi)
		}
	}
	return -1
}

// Group returns f's group under hash h, creating it if absent. The
// returned pointer is valid only until the next Group call (which may
// grow the backing array): use it immediately, do not hold it across
// insertions.
func (g *KeyGroups[V]) Group(h uint64, f Fact, eq func(group, probe Fact) bool) *KeyGroup[V] {
	gi := g.Find(h, f, eq)
	if gi < 0 {
		gi = len(g.groups)
		g.groups = append(g.groups, KeyGroup[V]{Fact: f})
		g.byHash[h] = append(g.byHash[h], int32(gi))
	}
	return &g.groups[gi]
}

// Groups returns all groups in first-seen order. The slice aliases the
// internal storage and is invalidated by further Group calls.
func (g *KeyGroups[V]) Groups() []KeyGroup[V] { return g.groups }
