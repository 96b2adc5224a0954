package autotune

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/workloads"
)

// panicOp wraps an operator and detonates a real panic site inside Compile
// on one chosen call (1-based). The counter is atomic so the trigger fires
// exactly once no matter how the worker pool schedules candidates.
type panicOp struct {
	Operator
	calls   atomic.Int64
	trigger int64
	boom    func()
}

func (o *panicOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	if o.calls.Add(1) == o.trigger {
		o.boom()
	}
	return o.Operator.Compile(st)
}

// TestPanicSitesBecomeCandidateErrors drives every known panic site
// reachable from a candidate evaluation through both tuners and asserts the
// panic is contained as a per-candidate failure: the search completes, the
// panic never escapes, and exactly one candidate is reported failed. Run
// with Workers: 4 so `make race` also proves containment under contention.
func TestPanicSitesBecomeCandidateErrors(t *testing.T) {
	sites := []struct {
		name string
		boom func()
	}{
		{"ir division by zero", func() {
			_ = ir.Div(ir.Const(1), ir.Const(0)) // constant folding divides
		}},
		{"ir modulo by zero", func() {
			_ = ir.Mod(ir.Const(1), ir.Const(0))
		}},
		{"tensor index out of range", func() {
			_ = tensor.New("t", 2, 2).At(5, 0)
		}},
		{"sw26010 negative compute time", func() {
			sw26010.NewMachine().AdvanceCompute(-1)
		}},
	}
	for _, site := range sites {
		site := site
		t.Run(site.name, func(t *testing.T) {
			op := &panicOp{
				Operator: smallOp(t, gemm.Params{M: 128, N: 128, K: 128}),
				trigger:  2,
				boom:     site.boom,
			}
			res, err := BlackBoxCtx(context.Background(), op, Options{Workers: 4})
			if err != nil {
				t.Fatalf("panic escaped as fatal error: %v", err)
			}
			if res.FailedCandidates != 1 {
				t.Fatalf("failed candidates = %d, want 1", res.FailedCandidates)
			}
			if res.Best.Program == nil {
				t.Fatal("no schedule selected despite surviving candidates")
			}
			if res.Valid+res.FailedCandidates > res.SpaceSize {
				t.Fatalf("accounting broken: valid %d + failed %d > space %d",
					res.Valid, res.FailedCandidates, res.SpaceSize)
			}
		})
		t.Run(site.name+"/model-based", func(t *testing.T) {
			op := &panicOp{
				Operator: smallOp(t, gemm.Params{M: 128, N: 128, K: 128}),
				trigger:  2,
				boom:     site.boom,
			}
			res, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: 4})
			if err != nil {
				t.Fatalf("panic escaped as fatal error: %v", err)
			}
			if res.FailedCandidates != 1 {
				t.Fatalf("failed candidates = %d, want 1", res.FailedCandidates)
			}
			if res.Best.Program == nil {
				t.Fatal("no schedule selected despite surviving candidates")
			}
		})
	}
}

// TestMeasurementPanicIsContained injects a panic into the exec measurement
// path itself (not the operator): every 2nd exec.Run call detonates. The
// brute-force tuner must still finish on the surviving half.
func TestMeasurementPanicIsContained(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	in := faults.New(7)
	in.PanicEveryNth(faults.Measure, 2, "injected measurement panic")
	res, err := BlackBoxCtx(context.Background(), op, Options{Workers: 4, Faults: in})
	if err != nil {
		t.Fatalf("measurement panic escaped: %v", err)
	}
	if res.FailedCandidates == 0 {
		t.Fatal("injector armed but no candidate failed")
	}
	if res.Best.Program == nil {
		t.Fatal("no schedule selected")
	}
	if in.Fired(faults.Measure) == 0 {
		t.Fatal("injector never fired")
	}
}

// TestRetryDeterminismOnVGG16Layer is the paper-pipeline acceptance test:
// with the injector failing every 3rd measurement transiently and
// Retry{Attempts: 3}, the brute-force tuner must select the exact same
// schedule and machine-time ledger as a fault-free run on a VGG16 layer —
// retries cost host wall time only, never simulated results.
func TestRetryDeterminismOnVGG16Layer(t *testing.T) {
	layer := workloads.VGG16()[10] // conv5_1: 512 channels, 14x14 output
	shape := layer.Shape(1)
	tune := func(in *faults.Injector, retry Retry) Result {
		t.Helper()
		op, err := conv.NewImplicitOp(shape)
		if err != nil {
			t.Fatal(err)
		}
		// Trim every menu to two entries so brute force stays fast; the
		// trimmed space is identical for both runs.
		sp := op.Space()
		for name, menu := range sp.Factors {
			if len(menu) > 2 {
				sp.Factors[name] = menu[:2]
			}
		}
		if len(sp.Orders) > 1 {
			sp.Orders = sp.Orders[:1]
		}
		res, err := BlackBoxCtx(context.Background(), op, Options{
			Faults: in,
			Retry:  retry,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := tune(nil, Retry{})

	in := faults.New(3)
	in.FailEveryNth(faults.Measure, 3, faults.Transient(errors.New("flaky timer")))
	faulty := tune(in, Retry{Attempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})

	sameResult(t, "retry determinism", clean, faulty)
	if faulty.FailedCandidates != 0 {
		t.Fatalf("retries should have absorbed every transient: %d failed", faulty.FailedCandidates)
	}
	if in.Fired(faults.Measure) == 0 {
		t.Fatal("injector never fired — the test proved nothing")
	}
}

// TestTransientWithoutRetryFailsCandidate is the control for the test
// above: the same injector with no retry policy turns each transient into a
// skipped candidate instead of a fatal error.
func TestTransientWithoutRetryFailsCandidate(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	in := faults.New(3)
	in.FailEveryNth(faults.Measure, 3, faults.Transient(errors.New("flaky timer")))
	res, err := BlackBoxCtx(context.Background(), op, Options{Faults: in})
	if err != nil {
		t.Fatalf("transient error escalated to fatal: %v", err)
	}
	if res.FailedCandidates == 0 {
		t.Fatal("expected skipped candidates without a retry policy")
	}
}

// TestNonTransientErrorStaysFatal pins the seed semantics: an eval error
// that is neither a panic nor transient still aborts the whole search.
func TestNonTransientErrorStaysFatal(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	in := faults.New(3)
	in.FailEveryNth(faults.Measure, 2, errors.New("corrupted simulator state"))
	_, err := BlackBoxCtx(context.Background(), op, Options{Faults: in, Retry: Retry{Attempts: 5}})
	if err == nil {
		t.Fatal("non-transient error should be fatal")
	}
	if !strings.Contains(err.Error(), "corrupted simulator state") {
		t.Fatalf("error lost its cause: %v", err)
	}
}

// TestMaxCandidateFailuresAborts proves the circuit breaker: once failures
// exceed the limit the search aborts with an error that carries the last
// CandidateError (index, strategy, panic flag) for diagnosis.
func TestMaxCandidateFailuresAborts(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	in := faults.New(9)
	in.PanicEveryNth(faults.Measure, 1, "every measurement panics")
	_, err := BlackBoxCtx(context.Background(), op, Options{
		Faults:               in,
		MaxCandidateFailures: 2,
	})
	if err == nil {
		t.Fatal("expected circuit-breaker abort")
	}
	if !strings.Contains(err.Error(), "exceed limit 2") {
		t.Fatalf("error does not mention the limit: %v", err)
	}
	var ce *CandidateError
	if !errors.As(err, &ce) {
		t.Fatalf("abort error should wrap the last CandidateError: %v", err)
	}
	if !ce.Panicked {
		t.Fatalf("candidate error should record the panic: %+v", ce)
	}
	if ce.Index < 0 || len(ce.Strategy.Factors) == 0 {
		t.Fatalf("candidate error lost its identity: %+v", ce)
	}
}

// TestAllCandidatesFailReportsCount: when every candidate fails, the tuner
// returns an error naming how many failed rather than hanging or panicking.
func TestAllCandidatesFailReportsCount(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	in := faults.New(11)
	in.PanicEveryNth(faults.Measure, 1, "every measurement panics")
	_, err := BlackBoxCtx(context.Background(), op, Options{Workers: 4, Faults: in})
	if err == nil {
		t.Fatal("expected failure when no candidate survives")
	}
	if !strings.Contains(err.Error(), "candidates failed") {
		t.Fatalf("error does not report the failed count: %v", err)
	}
}

// TestDMAFaultIsFatalWithoutRetryMark: an injected DMA failure that is not
// marked transient propagates as a hard error — fault classification is
// decided by the error's mark, not by where it was injected.
func TestDMAFaultIsFatalWithoutRetryMark(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	in := faults.New(5)
	in.FailEveryNth(faults.DMATransfer, 40, errors.New("CPE bus error"))
	_, err := BlackBoxCtx(context.Background(), op, Options{Faults: in})
	if err == nil {
		t.Fatal("unmarked DMA fault should be fatal")
	}
	if !strings.Contains(err.Error(), "CPE bus error") {
		t.Fatalf("error lost its cause: %v", err)
	}
}

// TestTransientDMAFaultIsRetried: the same DMA fault marked transient is
// absorbed by the retry policy and the result matches the fault-free run.
func TestTransientDMAFaultIsRetried(t *testing.T) {
	clean, err := BlackBoxCtx(context.Background(),
		smallOp(t, gemm.Params{M: 128, N: 128, K: 128}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(5)
	in.FailEveryNth(faults.DMATransfer, 97, faults.Transient(errors.New("CPE bus error")))
	faulty, err := BlackBoxCtx(context.Background(),
		smallOp(t, gemm.Params{M: 128, N: 128, K: 128}), Options{
			Faults: in,
			Retry:  Retry{Attempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
		})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "transient DMA retry", clean, faulty)
	if in.Fired(faults.DMATransfer) == 0 {
		t.Fatal("injector never fired — the test proved nothing")
	}
}

// TestComputeStallChangesLedgerOnly: an injected compute stall slows the
// simulated clock (so measured times move) but never breaks the search.
func TestComputeStallChangesLedgerOnly(t *testing.T) {
	clean, err := BlackBoxCtx(context.Background(),
		smallOp(t, gemm.Params{M: 128, N: 128, K: 128}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(5)
	in.StallEveryNth(faults.ComputeStall, 3, 1e-3)
	stalled, err := BlackBoxCtx(context.Background(),
		smallOp(t, gemm.Params{M: 128, N: 128, K: 128}), Options{Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	if stalled.MachineSeconds <= clean.MachineSeconds {
		t.Fatalf("stalls should inflate the ledger: %v <= %v",
			stalled.MachineSeconds, clean.MachineSeconds)
	}
	if stalled.Valid != clean.Valid || stalled.FailedCandidates != 0 {
		t.Fatalf("stalls must not fail candidates: valid %d vs %d, failed %d",
			stalled.Valid, clean.Valid, stalled.FailedCandidates)
	}
}
