package autotune

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/gemm"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
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

// TestProgressReportsEveryCandidate: live progress is the observer's job and
// the candidate counter. Every point is counted once, the candidate.finish
// events arrive in index order whatever the workers' timing, and the best
// gauge and the finished job carry the result's tallies.
func TestProgressReportsEveryCandidate(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	obs, reg := obsrv.NewWithCapacity(1<<12), metrics.NewRegistry()
	res, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: 4, Observer: obs, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("autotune_candidates_total").Value(); got != int64(res.SpaceSize) {
		t.Fatalf("%d candidates counted for %d points", got, res.SpaceSize)
	}
	finished, lastIdx := 0, -1
	for _, e := range obs.Flight().Snapshot() {
		if e.Kind != "candidate.finish" {
			continue
		}
		finished++
		idx, err := strconv.Atoi(e.Fields[0].Value)
		if err != nil || e.Fields[0].Key != "index" || idx <= lastIdx {
			t.Fatalf("candidate.finish out of index order: %v after index %d", e.Fields, lastIdx)
		}
		lastIdx = idx
	}
	if finished != res.Valid {
		t.Fatalf("%d candidate.finish events, result says %d valid", finished, res.Valid)
	}
	if best := reg.Gauge("autotune_best_predicted_seconds").Value(); best != res.Best.Predicted {
		t.Fatalf("final best %g, result predicted %g", best, res.Best.Predicted)
	}
	jobs := obs.Jobs().Snapshot()
	if len(jobs) != 1 {
		t.Fatalf("want one tune job, got %+v", jobs)
	}
	if j := jobs[0]; j.State != obsrv.JobDone || j.Done != res.SpaceSize || j.Valid != res.Valid ||
		j.Failed != 0 || j.BestMs != res.Best.Measured*1e3 {
		t.Fatalf("job %+v does not match result (space %d, valid %d, best %g ms)",
			j, res.SpaceSize, res.Valid, res.Best.Measured*1e3)
	}
}
