package engine

import (
	"sort"

	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// TupleLess orders tuples for Sort.
type TupleLess func(a, b tp.Tuple) bool

// Sort is a blocking operator that materializes and orders its input.
type Sort struct {
	blocking
	in   Operator
	less TupleLess
}

// NewSort sorts in by less.
func NewSort(in Operator, less TupleLess) *Sort {
	return &Sort{blocking: blocking{base: base{attrs: in.Attrs()}}, in: in, less: less}
}

func (s *Sort) Open() error {
	ctx := s.begin()
	if err := s.in.Open(); err != nil {
		return err
	}
	var err error
	if s.mat, err = drain(ctx, s.in); err != nil {
		return err
	}
	sort.SliceStable(s.mat, func(i, j int) bool { return s.less(s.mat[i], s.mat[j]) })
	return nil
}

func (s *Sort) Close() error { return s.in.Close() }

// Probs implements Operator.
func (s *Sort) Probs() prob.Probs { return s.in.Probs() }
