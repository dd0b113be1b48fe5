package engine

import (
	"fmt"

	"tpjoin/internal/core"
	"tpjoin/internal/prob"
	"tpjoin/internal/setops"
	"tpjoin/internal/tp"
)

// SetOpKind enumerates the TP set operations at the executor level.
type SetOpKind uint8

// The executor-level set operations.
const (
	SetUnion SetOpKind = iota
	SetIntersect
	SetExcept
)

func (k SetOpKind) String() string {
	switch k {
	case SetUnion:
		return "union"
	case SetIntersect:
		return "intersect"
	case SetExcept:
		return "except"
	default:
		return fmt.Sprintf("setop(%d)", uint8(k))
	}
}

// TPSetOp is the executor node for TP set operations (∪, ∩, −). Set
// operations need both inputs as relations; the node materializes its
// children (free for the common bare-scan case) and then its result at
// Open, under the query context.
type TPSetOp struct {
	blocking
	kind  SetOpKind
	left  Operator
	right Operator
	probs prob.Probs
}

// NewTPSetOp builds a set-operation node; the children must be
// union-compatible (checked at Open).
func NewTPSetOp(kind SetOpKind, left, right Operator) *TPSetOp {
	return &TPSetOp{blocking: blocking{base: base{attrs: left.Attrs()}}, kind: kind, left: left, right: right}
}

// Kind returns the set operation kind.
func (s *TPSetOp) Kind() SetOpKind { return s.kind }

// Children returns the node's inputs.
func (s *TPSetOp) Children() []Operator { return []Operator{s.left, s.right} }

func (s *TPSetOp) Open() error {
	ctx := s.begin()
	r, err := childRelation(ctx, s.left, "l")
	if err != nil {
		return err
	}
	t, err := childRelation(ctx, s.right, "r")
	if err != nil {
		return err
	}
	s.probs = tp.MergeProbs(r, t)
	var out *tp.Relation
	switch s.kind {
	case SetUnion:
		out, err = setops.Union(ctx, r, t)
	case SetIntersect:
		out, err = setops.Intersect(ctx, r, t)
	case SetExcept:
		out, err = setops.Difference(ctx, r, t)
	default:
		return fmt.Errorf("engine: unknown set operation %v", s.kind)
	}
	if err != nil {
		return err
	}
	s.mat = out.Tuples
	return nil
}

func (s *TPSetOp) Close() error {
	errL := s.left.Close()
	errR := s.right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// Probs implements Operator.
func (s *TPSetOp) Probs() prob.Probs {
	if s.probs != nil {
		return s.probs
	}
	return tp.MergeProbs(
		&tp.Relation{Probs: s.left.Probs()},
		&tp.Relation{Probs: s.right.Probs()},
	)
}

// LineageDistinct is the executor node for SELECT DISTINCT: the
// temporal-probabilistic projection with duplicate elimination
// (core.ProjectLineage) over the given columns of its input. Blocking.
type LineageDistinct struct {
	blocking
	in   Operator
	cols []int
}

// NewLineageDistinct projects in to cols (named names) with TP duplicate
// elimination.
func NewLineageDistinct(in Operator, cols []int, names []string) (*LineageDistinct, error) {
	if len(cols) != len(names) {
		return nil, fmt.Errorf("engine: distinct arity mismatch")
	}
	inAttrs := in.Attrs()
	for _, c := range cols {
		if c < 0 || c >= len(inAttrs) {
			return nil, fmt.Errorf("engine: distinct column %d out of range", c)
		}
	}
	return &LineageDistinct{blocking: blocking{base: base{attrs: names}}, in: in, cols: cols}, nil
}

// Child returns the input operator.
func (d *LineageDistinct) Child() Operator { return d.in }

func (d *LineageDistinct) Open() error {
	ctx := d.begin()
	rel, err := childRelation(ctx, d.in, "d")
	if err != nil {
		return err
	}
	out, err := core.ProjectLineage(ctx, rel, d.cols, d.attrs)
	if err != nil {
		return err
	}
	d.mat = out.Tuples
	return nil
}

func (d *LineageDistinct) Close() error { return d.in.Close() }

// Probs implements Operator.
func (d *LineageDistinct) Probs() prob.Probs { return d.in.Probs() }
