package autotune

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/gemm"
	"swatop/internal/tensor"
)

// sameResult asserts the parallel tuner reproduced the sequential reference
// bit-for-bit: schedule, measured/predicted times, the machine-time ledger
// and the candidate accounting.
func sameResult(t *testing.T, label string, seq, par Result) {
	t.Helper()
	if seq.Best.Strategy.String() != par.Best.Strategy.String() {
		t.Fatalf("%s: schedules differ:\nseq %s\npar %s",
			label, seq.Best.Strategy, par.Best.Strategy)
	}
	if seq.Best.Measured != par.Best.Measured {
		t.Fatalf("%s: measured %v vs %v", label, seq.Best.Measured, par.Best.Measured)
	}
	if seq.Best.Predicted != par.Best.Predicted {
		t.Fatalf("%s: predicted %v vs %v", label, seq.Best.Predicted, par.Best.Predicted)
	}
	if seq.MachineSeconds != par.MachineSeconds {
		t.Fatalf("%s: machine seconds %v vs %v — simulated time must not depend on host parallelism",
			label, seq.MachineSeconds, par.MachineSeconds)
	}
	if seq.Valid != par.Valid || seq.SpaceSize != par.SpaceSize {
		t.Fatalf("%s: accounting differs: valid %d/%d vs %d/%d",
			label, seq.Valid, seq.SpaceSize, par.Valid, par.SpaceSize)
	}
}

func TestModelBasedWorkerCountInvariance(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 256, N: 256, K: 256})
	seq, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("workers=%d", w), seq, par)
	}
}

func TestModelBasedWorkerCountInvarianceConv(t *testing.T) {
	s := tensor.ConvShape{B: 4, Ni: 32, No: 32, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	tune := func(workers int) Result {
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResult(t, "conv workers=8", tune(1), tune(8))
}

func TestBlackBoxWorkerCountInvariance(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	seq, err := BlackBoxCtx(context.Background(), op, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BlackBoxCtx(context.Background(), op, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Best.Strategy.String() != par.Best.Strategy.String() {
		t.Fatalf("schedules differ:\nseq %s\npar %s", seq.Best.Strategy, par.Best.Strategy)
	}
	if seq.Best.Measured != par.Best.Measured || seq.MachineSeconds != par.MachineSeconds {
		t.Fatalf("ledger differs: measured %v/%v machine %v/%v",
			seq.Best.Measured, par.Best.Measured, seq.MachineSeconds, par.MachineSeconds)
	}
	if seq.Valid != par.Valid || seq.SpaceSize != par.SpaceSize {
		t.Fatalf("accounting differs: %d/%d vs %d/%d",
			seq.Valid, seq.SpaceSize, par.Valid, par.SpaceSize)
	}
}

func TestTuningCancellation(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ModelBasedCtx(ctx, op, model(t), Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel model-based: want context.Canceled, got %v", err)
	}
	if _, err := ModelBasedCtx(ctx, op, model(t), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential model-based: want context.Canceled, got %v", err)
	}
	if _, err := BlackBoxCtx(ctx, op, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel black-box: want context.Canceled, got %v", err)
	}
}

func TestProgressReportsEveryCandidate(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	var dones []int
	lastValid := 0
	lastBest := 0.0
	res, err := ModelBasedCtx(context.Background(), op, model(t), Options{
		Workers: 4,
		Progress: func(done, valid int, best float64) {
			dones = append(dones, done)
			lastValid = valid
			if best > 0 && lastBest > 0 && best > lastBest {
				t.Errorf("best score went up: %g after %g", best, lastBest)
			}
			lastBest = best
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != res.SpaceSize {
		t.Fatalf("progress fired %d times for %d points", len(dones), res.SpaceSize)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done counter not monotone at call %d: %v", i, dones)
		}
	}
	if lastValid != res.Valid {
		t.Fatalf("final valid count %d, result says %d", lastValid, res.Valid)
	}
	if lastBest != res.Best.Predicted {
		t.Fatalf("final best %g, result predicted %g", lastBest, res.Best.Predicted)
	}
}
