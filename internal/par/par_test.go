package par_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tpjoin/internal/align"
	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/par"
	"tpjoin/internal/tp"
)

// settled waits for the goroutine count to fall back to base: Run joins
// every worker before returning, but an exited goroutine leaves the count
// a moment after its WaitGroup.Done.
func settled(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after — a worker outlived Run", base, runtime.NumGoroutine())
}

func TestRunRunsEveryPartitionOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	const parts = 37
	var hits [parts]atomic.Int32
	var running, peak atomic.Int32
	err := par.Run(context.Background(), parts, 3, func(p int) error {
		n := running.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		defer running.Add(-1)
		hits[p].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range hits {
		if n := hits[p].Load(); n != 1 {
			t.Errorf("partition %d ran %d times, want 1", p, n)
		}
	}
	if peak.Load() > 3 {
		t.Errorf("%d partitions ran at once, want ≤ 3 workers", peak.Load())
	}
	settled(t, base)
}

// With one worker the partitions run strictly one after another, so what
// the first one does decides whether any other starts.
func TestRunStopsStartingPartitions(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")

	var calls atomic.Int32
	err := par.Run(context.Background(), 50, 1, func(int) error {
		calls.Add(1)
		return boom
	})
	if !errors.Is(err, boom) || calls.Load() != 1 {
		t.Errorf("first error: err=%v after %d partitions, want boom after 1", err, calls.Load())
	}

	calls.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = par.Run(ctx, 50, 1, func(int) error {
		calls.Add(1)
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls.Load() != 1 {
		t.Errorf("cancel: err=%v after %d partitions, want context.Canceled after 1", err, calls.Load())
	}

	// A cancelled run reports the context error whatever the worker said.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	err = par.Run(ctx2, 8, 2, func(int) error {
		cancel2()
		return boom
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run with a failing worker: err=%v, want context.Canceled", err)
	}
	settled(t, base)
}

func TestRunReraisesWorkerPanicOnCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if rec := recover(); rec != "partition 3 exploded" {
				t.Errorf("recovered %v, want the worker's panic value", rec)
			}
		}()
		_ = par.Run(context.Background(), 8, 2, func(p int) error {
			if p == 3 {
				panic("partition 3 exploded")
			}
			return nil
		})
		t.Error("Run returned normally after a worker panic")
	}()
	settled(t, base)
}

func TestPartitionByKey(t *testing.T) {
	rel := tp.NewRelation("r", "Key", "ID")
	for i := 0; i < 200; i++ {
		key := tp.String_(fmt.Sprintf("k%d", i%17))
		if i%10 == 0 {
			key = tp.Null()
		}
		rel.Append(tp.Fact{key, tp.String_(strconv.Itoa(i))}, interval.New(interval.Time(i), interval.Time(i+1)), 0.5)
	}
	const parts = 5
	got := par.PartitionByKey(rel, []int{0}, parts)
	if len(got) != parts {
		t.Fatalf("%d partitions, want %d", len(got), parts)
	}
	home := map[string]int{}
	total := 0
	for p, part := range got {
		if part.Name != rel.Name {
			t.Errorf("partition %d: Name=%q, want a view of %q", p, part.Name, rel.Name)
		}
		total += part.Len()
		for _, tu := range part.Tuples {
			id, _ := strconv.Atoi(tu.Fact[1].AsString())
			if tu.Fact[0].IsNull() {
				if p != id%parts {
					t.Errorf("NULL-key tuple %d in partition %d, want round-robin slot %d", id, p, id%parts)
				}
				continue
			}
			k := tu.Fact[0].AsString()
			if h, seen := home[k]; seen && h != p {
				t.Errorf("key %s split across partitions %d and %d", k, h, p)
			}
			home[k] = p
		}
	}
	if total != rel.Len() {
		t.Errorf("partitions hold %d tuples, want %d", total, rel.Len())
	}
	again := par.PartitionByKey(rel, []int{0}, parts)
	for p := range got {
		if fmt.Sprint(got[p].Tuples) != fmt.Sprint(again[p].Tuples) {
			t.Errorf("partition %d differs between two partitionings of one relation", p)
		}
	}
}

func rowBag(rel *tp.Relation) []string {
	out := make([]string, 0, rel.Len())
	for _, tu := range rel.Tuples {
		out = append(out, fmt.Sprintf("%v | %s | %s | %.17g", tu.Fact, tu.Lineage, tu.T, tu.Prob))
	}
	sort.Strings(out)
	return out
}

// TestJoinEqualsSequential runs both executors' per-partition bodies
// through Join: whatever the worker count, the concatenated partitions are
// the sequential join's rows, and the reported layout is the resolved one.
func TestJoinEqualsSequential(t *testing.T) {
	r, s := dataset.Webkit(400, 3)
	eq := dataset.WebkitTheta()
	bodies := map[string]func(tp.Op, *tp.Relation, *tp.Relation) *tp.Relation{
		"NJ": func(op tp.Op, rp, sp *tp.Relation) *tp.Relation { return core.Join(op, rp, sp, eq) },
		"TA": func(op tp.Op, rp, sp *tp.Relation) *tp.Relation { return align.Join(op, rp, sp, eq, align.Config{}) },
	}
	for name, body := range bodies {
		for _, op := range []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull} {
			want := rowBag(body(op, r, s))
			for _, workers := range []int{1, 2, 7} {
				out, w, parts, err := par.Join(context.Background(), r, s, eq, workers,
					func(_ context.Context, rp, sp *tp.Relation) (*tp.Relation, error) {
						return body(op, rp, sp), nil
					})
				if err != nil {
					t.Fatal(err)
				}
				if w != workers || parts != 4*workers {
					t.Errorf("%s %v: layout %d workers / %d partitions, want %d / %d", name, op, w, parts, workers, 4*workers)
				}
				if got := rowBag(out); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s %v workers=%d: %d rows differ from the sequential join's %d", name, op, workers, len(got), len(want))
				}
			}
		}
	}
	if par.Workers(0) != runtime.GOMAXPROCS(0) || par.Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(≤0) = %d, %d, want GOMAXPROCS", par.Workers(0), par.Workers(-3))
	}
	if par.Workers(par.MaxWorkers+1) != par.MaxWorkers {
		t.Errorf("Workers above the cap = %d, want %d", par.Workers(par.MaxWorkers+1), par.MaxWorkers)
	}
}

func TestJoinSurfacesPartitionError(t *testing.T) {
	r, s := dataset.Webkit(100, 3)
	boom := errors.New("boom")
	var calls atomic.Int32
	out, w, parts, err := par.Join(context.Background(), r, s, dataset.WebkitTheta(), 2,
		func(_ context.Context, rp, sp *tp.Relation) (*tp.Relation, error) {
			if calls.Add(1) == 5 {
				return nil, boom
			}
			return core.Join(tp.OpLeft, rp, sp, dataset.WebkitTheta()), nil
		})
	if out != nil || !errors.Is(err, boom) || w != 2 || parts != 8 {
		t.Errorf("out=%v err=%v layout=%d/%d, want nil + boom with the 2/8 layout still reported", out, err, w, parts)
	}
}
