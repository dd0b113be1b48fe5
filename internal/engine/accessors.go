package engine

import "tpjoin/internal/tp"

// Child accessors used by EXPLAIN rendering (internal/plan).

// Child returns the input operator.
func (f *Filter) Child() Operator { return f.in }

// Child returns the input operator.
func (p *Project) Child() Operator { return p.in }

// Child returns the input operator.
func (l *Limit) Child() Operator { return l.in }

// Child returns the input operator.
func (s *Sort) Child() Operator { return s.in }

// Op returns the join operator kind.
func (j *TPJoin) Op() tp.Op { return j.op }

// Strategy returns the physical strategy of the join.
func (j *TPJoin) Strategy() Strategy { return j.strategy }

// Children returns the join's inputs.
func (j *TPJoin) Children() []Operator { return []Operator{j.left, j.right} }
