package engine

import (
	"errors"
	"fmt"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// faulty is an operator that fails at a chosen point in its lifecycle,
// used to verify error propagation through every composite operator.
type faulty struct {
	base
	inner    Operator
	failOpen bool
	failAt   int // fail on the n-th Next (1-based); 0 disables
	calls    int
}

var errInjected = errors.New("injected failure")

func newFaulty(inner Operator, failOpen bool, failAt int) *faulty {
	return &faulty{base: base{attrs: inner.Attrs()}, inner: inner, failOpen: failOpen, failAt: failAt}
}

func (f *faulty) Open() error {
	if f.failOpen {
		return fmt.Errorf("open: %w", errInjected)
	}
	f.calls = 0
	return f.inner.Open()
}

func (f *faulty) Next() (tp.Tuple, bool, error) {
	f.calls++
	if f.failAt > 0 && f.calls >= f.failAt {
		return tp.Tuple{}, false, fmt.Errorf("next: %w", errInjected)
	}
	return f.inner.Next()
}

func (f *faulty) Close() error      { return f.inner.Close() }
func (f *faulty) Probs() prob.Probs { return f.inner.Probs() }

func TestErrorPropagation(t *testing.T) {
	mk := func() Operator { return newFaulty(NewScan(paperA()), false, 1) }
	mkOpen := func() Operator { return newFaulty(NewScan(paperA()), true, 0) }

	composites := map[string]func(Operator) Operator{
		"Filter": func(in Operator) Operator {
			return NewFilter(in, func(tp.Tuple) bool { return true })
		},
		"Project": func(in Operator) Operator {
			p, err := NewProject(in, []int{0}, []string{"Name"})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"Limit": func(in Operator) Operator { return NewLimit(in, 10) },
		"Sort": func(in Operator) Operator {
			return NewSort(in, func(a, b tp.Tuple) bool { return a.T.Less(b.T) })
		},
		"LineageDistinct": func(in Operator) Operator {
			d, err := NewLineageDistinct(in, []int{0}, []string{"Name"})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for name, wrap := range composites {
		// Failure during Next.
		if _, err := Run(wrap(mk()), "q"); !errors.Is(err, errInjected) {
			t.Errorf("%s: Next failure not propagated: %v", name, err)
		}
		// Failure during Open.
		if _, err := Run(wrap(mkOpen()), "q"); !errors.Is(err, errInjected) {
			t.Errorf("%s: Open failure not propagated: %v", name, err)
		}
	}
}

// TestErrorPropagationUnion: the TP union drains both inputs at Open; a
// failure of either one, in its Open or mid-drain, must surface.
func TestErrorPropagationUnion(t *testing.T) {
	derived := func(failOpen bool, failAt int) Operator {
		return newFaulty(NewFilter(NewScan(paperA()), func(tp.Tuple) bool { return true }), failOpen, failAt)
	}
	u := NewTPSetOp(SetUnion, NewScan(paperA()), derived(false, 1))
	if _, err := Run(u, "q"); !errors.Is(err, errInjected) {
		t.Errorf("union must propagate child failure: %v", err)
	}
	u2 := NewTPSetOp(SetUnion, derived(true, 0), NewScan(paperA()))
	if _, err := Run(u2, "q"); !errors.Is(err, errInjected) {
		t.Errorf("union must propagate child Open failure: %v", err)
	}
}

func TestErrorPropagationTPJoin(t *testing.T) {
	// A faulty derived child fails while the join materializes it at Open.
	f := newFaulty(NewFilter(NewScan(paperA()), func(tp.Tuple) bool { return true }), false, 1)
	j := NewTPJoin(tp.OpLeft, f, NewScan(paperB()), theta, StrategyNJ, align.Config{})
	if _, err := Run(j, "q"); !errors.Is(err, errInjected) {
		t.Errorf("TPJoin must propagate child failure: %v", err)
	}
}

func TestErrorPropagationTPSetOp(t *testing.T) {
	f := newFaulty(NewFilter(NewScan(paperA()), func(tp.Tuple) bool { return true }), false, 1)
	s := NewTPSetOp(SetUnion, f, NewScan(paperA()))
	if _, err := Run(s, "q"); !errors.Is(err, errInjected) {
		t.Errorf("TPSetOp must propagate child failure: %v", err)
	}
}

func TestErrorPropagationLineageDistinct(t *testing.T) {
	f := newFaulty(NewFilter(NewScan(paperA()), func(tp.Tuple) bool { return true }), false, 2)
	d, err := NewLineageDistinct(f, []int{0}, []string{"Name"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, "q"); !errors.Is(err, errInjected) {
		t.Errorf("LineageDistinct must propagate child failure: %v", err)
	}
}
