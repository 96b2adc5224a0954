package autotune

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"swatop/internal/dsl"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/search"
)

// remeasureOp tells a searcher's two compiles of one strategy apart: Eval
// is memoized per index, so the second compile of a strategy is its
// measurement. onMeasure sees every such compile and may substitute the
// program that gets run.
type remeasureOp struct {
	Operator
	mu        sync.Mutex
	seen      map[string]bool
	onMeasure func(st dsl.Strategy, prog *ir.Program) *ir.Program
}

func (o *remeasureOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	prog, err := o.Operator.Compile(st)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	again := o.seen[st.String()]
	o.seen[st.String()] = true
	o.mu.Unlock()
	if again {
		prog = o.onMeasure(st, prog)
	}
	return prog, nil
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// TestSearcherFatalErrorIsLowestIndex: when several candidates of one
// measure batch fail with a non-transient error, the search reports the
// lowest-index one — what the sequential loop stops at — for any worker
// count and goroutine timing. (The batch used to keep whichever arrived
// first.)
func TestSearcherFatalErrorIsLowestIndex(t *testing.T) {
	tune := func(workers int) string {
		op := &remeasureOp{
			Operator: smallOp(t, gemm.Params{M: 128, N: 128, K: 128}),
			seen:     map[string]bool{},
			// Every odd-hashed strategy measures a program that waits for a
			// transfer nobody issued: a plain error naming the strategy. They
			// take 0–2 ms to get there, so with several workers the failures
			// do not arrive in index order.
			onMeasure: func(st dsl.Strategy, prog *ir.Program) *ir.Program {
				h := hash32(st.String())
				if h%2 == 0 {
					return prog
				}
				time.Sleep(time.Duration(h>>8%3) * time.Millisecond)
				return &ir.Program{Name: "sabotaged " + st.String(),
					Body: []ir.Stmt{&ir.DMAWait{Reply: "r", Times: ir.Const(1)}}}
			},
		}
		_, err := ModelBasedCtx(context.Background(), op, model(t), Options{
			Workers: workers, Searcher: &search.Evolutionary{}, SearchSeed: 7,
		})
		if err == nil {
			t.Fatal("sabotaged measurements did not fail the search")
		}
		return err.Error()
	}
	want := tune(1)
	for i := 0; i < 50; i++ {
		if got := tune(4); got != want {
			t.Fatalf("repetition %d: workers=4 reported\n %s\nsequential reference reported\n %s", i, got, want)
		}
	}
}

// TestSearcherCancelMidBatch: cancelling while a measure batch runs stops
// the batch at the next candidate instead of measuring the rest of it.
func TestSearcherCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	measured := 0
	op := &remeasureOp{
		Operator: smallOp(t, gemm.Params{M: 128, N: 128, K: 128}),
		seen:     map[string]bool{},
		onMeasure: func(_ dsl.Strategy, prog *ir.Program) *ir.Program {
			measured++ // Workers: 1 — one goroutine
			cancel()
			return prog
		},
	}
	_, err := ModelBasedCtx(ctx, op, model(t), Options{
		Workers: 1, Searcher: &search.Evolutionary{}, SearchSeed: 7,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if measured != 1 {
		t.Fatalf("batch measured %d candidates after the cancel, want it to stop at the first", measured)
	}
}

// TestTuneInvariantUnderWorkersAndRetries is the single failure policy as
// a property: under twenty seeded fault schedules — candidates that panic
// by strategy, transient measurement faults under a retry policy, a failure
// limit some schedules exceed — every tuner returns the same schedule,
// counts, machine-seconds bits and error text at 1, 2, 4 and 8 workers.
func TestTuneInvariantUnderWorkersAndRetries(t *testing.T) {
	type outcome struct {
		strategy      string
		valid, failed int
		machine       uint64
		err           string
	}
	run := func(tuner string, seed uint64, workers int) outcome {
		var op Operator = smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
		opts := Options{Workers: workers}
		// Panics keyed on the strategy: a quarter of the seeds sabotage about
		// one candidate in (2 + seed%3) — every compile of it in the walks,
		// its measurement in the search (where a panicking Eval is only an
		// infeasible point).
		if seed%4 == 0 {
			inner, mod := op, uint32(2+seed%3)
			boom := func(st dsl.Strategy) {
				h := fnv.New32a()
				fmt.Fprintf(h, "%d %s", seed, st)
				if h.Sum32()%mod == 0 {
					panic("boom")
				}
			}
			if tuner == "evo" {
				op = &remeasureOp{Operator: inner, seen: map[string]bool{},
					onMeasure: func(st dsl.Strategy, prog *ir.Program) *ir.Program { boom(st); return prog }}
			} else {
				op = compileFunc{inner, func(st dsl.Strategy) (*ir.Program, error) { boom(st); return inner.Compile(st) }}
			}
		}
		// Transient measurement faults every nth call. Which candidate draws
		// one depends on scheduling, so the retries have to absorb them all:
		// with a period of 11 or more, eight attempts cannot all land on it.
		// The walk measures three finalists one after the other, so it can
		// take every second call failing.
		if seed%2 == 1 {
			nth := 11 + seed%5
			if tuner == "walk" {
				nth = 2
			}
			in := faults.New(seed)
			in.FailEveryNth(faults.Measure, nth, faults.Transient(errors.New("flaky timer")))
			opts.Faults = in
			opts.Retry = Retry{Attempts: 8, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
		}
		if seed%8 == 0 {
			opts.MaxCandidateFailures = 3 // the sabotaged spaces exceed it
		}
		var res Result
		var err error
		switch tuner {
		case "blackbox":
			res, err = BlackBoxCtx(context.Background(), op, opts)
		case "evo":
			opts.Searcher, opts.SearchSeed = &search.Evolutionary{}, seed+1
			fallthrough
		default:
			res, err = ModelBasedCtx(context.Background(), op, model(t), opts)
		}
		o := outcome{valid: res.Valid, failed: res.FailedCandidates, machine: math.Float64bits(res.MachineSeconds)}
		if err != nil {
			o.err = err.Error()
		} else {
			o.strategy = res.Best.Strategy.String()
		}
		return o
	}
	for _, tuner := range []string{"walk", "blackbox", "evo"} {
		for seed := uint64(0); seed < 20; seed++ {
			want := run(tuner, seed, 1)
			for _, workers := range []int{2, 4, 8} {
				if got := run(tuner, seed, workers); got != want {
					t.Errorf("%s seed %d: workers=%d diverged from the sequential reference:\n got %+v\nwant %+v",
						tuner, seed, workers, got, want)
				}
			}
		}
	}
}

// compileFunc replaces an operator's Compile.
type compileFunc struct {
	Operator
	compile func(dsl.Strategy) (*ir.Program, error)
}

func (o compileFunc) Compile(st dsl.Strategy) (*ir.Program, error) { return o.compile(st) }
