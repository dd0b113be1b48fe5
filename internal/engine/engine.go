// Package engine is a small Volcano-style (pull-based iterator) query
// executor over temporal-probabilistic relations. It plays the role the
// modified PostgreSQL executor plays in the paper: the NJ join operators
// (internal/core) plug into it as ordinary pipelined operators, which is
// the paper's integration claim — lineage-aware window computation needs
// no tuple replication and no materialization barriers beyond those of a
// conventional hash join.
//
// Operators follow the classic Open/Next/Close contract and report
// per-operator statistics (rows produced) for EXPLAIN ANALYZE-style
// output.
package engine

import (
	"context"
	"fmt"

	"tpjoin/internal/mem"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// Operator is a pull-based executor node producing TP tuples.
type Operator interface {
	// Open prepares the operator (and its children) for execution.
	Open() error
	// Next returns the next tuple. ok is false at end of stream.
	Next() (t tp.Tuple, ok bool, err error)
	// Close releases resources. It is safe to call after exhaustion.
	Close() error
	// Attrs returns the output attribute names.
	Attrs() []string
	// Probs returns the probabilities of the base events that may appear
	// in the lineages of produced tuples.
	Probs() prob.Probs
	// Stats returns the rows produced so far.
	Stats() Stats
}

// Stats carries per-operator runtime counters.
type Stats struct {
	Rows int64
}

// base provides common bookkeeping for operators.
type base struct {
	attrs []string
	stats Stats
}

func (b *base) Attrs() []string { return b.attrs }
func (b *base) Stats() Stats    { return b.stats }

// Run drains op into a relation named name, opening and closing it.
func Run(op Operator, name string) (*tp.Relation, error) {
	return RunContext(context.Background(), op, name)
}

// cancelCheckInterval is how many tuples drain pulls between checkpoints:
// frequent enough that per-query timeouts bite within microseconds on the
// pipelined NJ operators, rare enough that the check never shows up in
// profiles.
const cancelCheckInterval = 256

// RunContext drains op into a relation named name, opening and closing
// it, and aborts with ctx.Err() when the context is cancelled or its
// deadline passes. Cancellation is observed before Open, inside blocking
// Opens (ctx is bound over the tree first, so the TA baseline checks it
// between alignment batches and the PNJ partition workers between
// partitions — see ContextBinder), and then at every checkpoint of the
// final drain, like a memory budget on ctx (mem.WithGauge).
func RunContext(ctx context.Context, op Operator, name string) (*tp.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	BindContext(ctx, op)
	return materialize(ctx, op, name)
}

// materialize opens op, drains it into a relation named name and closes
// it.
func materialize(ctx context.Context, op Operator, name string) (*tp.Relation, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	tuples, err := drain(ctx, op)
	if err != nil {
		return nil, err
	}
	return &tp.Relation{
		Name:   name,
		Attrs:  append([]string(nil), op.Attrs()...),
		Probs:  op.Probs(),
		Tuples: tuples,
	}, nil
}

// drain pulls the opened op to exhaustion — the one loop behind every
// place the engine buffers tuples (the final result, a join's or set
// operation's derived input, Sort). Every cancelCheckInterval tuples it
// observes ctx and charges a memory budget on it for the tuples buffered
// since the last checkpoint, so a runaway buffer aborts with a budget
// error as promptly as a timeout would fire.
func drain(ctx context.Context, op Operator) ([]tp.Tuple, error) {
	gauge := mem.FromContext(ctx)
	perCheck := cancelCheckInterval * mem.TupleBytes(len(op.Attrs()))
	var out []tp.Tuple
	for n := 0; ; n++ {
		if n%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if n > 0 {
				if err := gauge.Charge(perCheck); err != nil {
					return nil, err
				}
			}
		}
		t, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}

// blocking is the state every operator with a materializing Open shares:
// the query context RunContext binds (see ContextBinder), the tuples Open
// materialized and the cursor Next scans them with.
type blocking struct {
	base
	ctx context.Context
	mat []tp.Tuple
	mi  int
}

// BindContext implements ContextBinder: the materializing Open observes
// ctx, so a per-query timeout, client disconnect or memory budget aborts
// mid-Open instead of at the next tuple boundary.
func (b *blocking) BindContext(ctx context.Context) { b.ctx = ctx }

// begin resets the operator for a fresh Open and returns the bound
// context (Background for a tree driven without RunContext).
func (b *blocking) begin() context.Context {
	b.stats = Stats{}
	b.mat, b.mi = nil, 0
	if b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// Next scans the materialized tuples.
func (b *blocking) Next() (tp.Tuple, bool, error) {
	if b.mi >= len(b.mat) {
		return tp.Tuple{}, false, nil
	}
	t := b.mat[b.mi]
	b.mi++
	b.stats.Rows++
	return t, true, nil
}

// --- Scan ---

// Scan produces the tuples of a materialized relation.
type Scan struct {
	base
	rel *tp.Relation
	i   int
}

// NewScan returns a scan over rel.
func NewScan(rel *tp.Relation) *Scan {
	return &Scan{base: base{attrs: rel.Attrs}, rel: rel}
}

func (s *Scan) Open() error {
	s.i = 0
	s.stats = Stats{}
	return nil
}

func (s *Scan) Next() (tp.Tuple, bool, error) {
	if s.i >= len(s.rel.Tuples) {
		return tp.Tuple{}, false, nil
	}
	t := s.rel.Tuples[s.i]
	s.i++
	s.stats.Rows++
	return t, true, nil
}

func (s *Scan) Close() error { return nil }

// Relation exposes the scanned relation (used by join operators that need
// the base-event probabilities).
func (s *Scan) Relation() *tp.Relation { return s.rel }

// Probs implements Operator.
func (s *Scan) Probs() prob.Probs { return s.rel.Probs }

// --- Filter ---

// Predicate decides whether an output tuple passes a filter.
type Predicate func(tp.Tuple) bool

// Filter passes through tuples satisfying the predicate.
type Filter struct {
	base
	in   Operator
	pred Predicate
}

// NewFilter wraps in with a predicate.
func NewFilter(in Operator, pred Predicate) *Filter {
	return &Filter{base: base{attrs: in.Attrs()}, in: in, pred: pred}
}

func (f *Filter) Open() error { f.stats = Stats{}; return f.in.Open() }

func (f *Filter) Next() (tp.Tuple, bool, error) {
	for {
		t, ok, err := f.in.Next()
		if err != nil || !ok {
			return tp.Tuple{}, false, err
		}
		if f.pred(t) {
			f.stats.Rows++
			return t, true, nil
		}
	}
}

func (f *Filter) Close() error { return f.in.Close() }

// Probs implements Operator.
func (f *Filter) Probs() prob.Probs { return f.in.Probs() }

// --- Project ---

// Project selects (and reorders) fact attributes by index.
type Project struct {
	base
	in   Operator
	cols []int
}

// NewProject returns a projection of in to the given column indexes, named
// by names (which must have the same length as cols).
func NewProject(in Operator, cols []int, names []string) (*Project, error) {
	if len(cols) != len(names) {
		return nil, fmt.Errorf("engine: project arity mismatch: %d cols, %d names", len(cols), len(names))
	}
	inAttrs := in.Attrs()
	for _, c := range cols {
		if c < 0 || c >= len(inAttrs) {
			return nil, fmt.Errorf("engine: project column %d out of range (input has %d)", c, len(inAttrs))
		}
	}
	return &Project{base: base{attrs: names}, in: in, cols: cols}, nil
}

func (p *Project) Open() error { p.stats = Stats{}; return p.in.Open() }

func (p *Project) Next() (tp.Tuple, bool, error) {
	t, ok, err := p.in.Next()
	if err != nil || !ok {
		return tp.Tuple{}, false, err
	}
	f := make(tp.Fact, len(p.cols))
	for i, c := range p.cols {
		f[i] = t.Fact[c]
	}
	t.Fact = f
	p.stats.Rows++
	return t, true, nil
}

func (p *Project) Close() error { return p.in.Close() }

// Probs implements Operator.
func (p *Project) Probs() prob.Probs { return p.in.Probs() }

// --- Limit ---

// Limit passes through at most n tuples.
type Limit struct {
	base
	in   Operator
	n    int
	seen int
}

// NewLimit caps in at n tuples.
func NewLimit(in Operator, n int) *Limit {
	return &Limit{base: base{attrs: in.Attrs()}, in: in, n: n}
}

func (l *Limit) Open() error { l.seen = 0; l.stats = Stats{}; return l.in.Open() }

func (l *Limit) Next() (tp.Tuple, bool, error) {
	if l.seen >= l.n {
		return tp.Tuple{}, false, nil
	}
	t, ok, err := l.in.Next()
	if err != nil || !ok {
		return tp.Tuple{}, false, err
	}
	l.seen++
	l.stats.Rows++
	return t, true, nil
}

func (l *Limit) Close() error { return l.in.Close() }

// Probs implements Operator.
func (l *Limit) Probs() prob.Probs { return l.in.Probs() }
