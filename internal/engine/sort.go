package engine

import (
	"context"
	"sort"

	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// TupleLess orders tuples for Sort.
type TupleLess func(a, b tp.Tuple) bool

// Sort is a blocking operator that materializes and orders its input.
type Sort struct {
	base
	in   Operator
	less TupleLess
	ctx  context.Context // bound by RunContext; nil = Background
	buf  []tp.Tuple
	i    int
}

// NewSort sorts in by less.
func NewSort(in Operator, less TupleLess) *Sort {
	return &Sort{base: base{attrs: in.Attrs()}, in: in, less: less}
}

// BindContext implements ContextBinder: the materializing Open drains its
// input under the query context.
func (s *Sort) BindContext(ctx context.Context) { s.ctx = ctx }

func (s *Sort) Open() error {
	s.stats = Stats{}
	s.buf = s.buf[:0]
	s.i = 0
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.in.Open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		if n%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.buf = append(s.buf, t)
	}
	sort.SliceStable(s.buf, func(i, j int) bool { return s.less(s.buf[i], s.buf[j]) })
	return nil
}

func (s *Sort) Next() (tp.Tuple, bool, error) {
	if s.i >= len(s.buf) {
		return tp.Tuple{}, false, nil
	}
	t := s.buf[s.i]
	s.i++
	s.stats.Rows++
	return t, true, nil
}

func (s *Sort) Close() error { return s.in.Close() }

// Probs implements Operator.
func (s *Sort) Probs() prob.Probs { return s.in.Probs() }
