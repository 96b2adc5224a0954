package autotune

import (
	"context"
	"errors"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/metrics"
)

// TestResolveFailedTuneLeavesLibraryUntouched: a tune that fails records
// nothing — whatever the caller serves instead is never cached — and an
// entry already there for another shape is left alone.
func TestResolveFailedTuneLeavesLibraryUntouched(t *testing.T) {
	lib := cache.NewLibrary()
	other := smallOp(t, gemm.Params{M: 256, N: 256, K: 256})
	if _, _, err := Resolve(context.Background(), other, model(t), lib, false, Options{}); err != nil {
		t.Fatal(err)
	}
	in := faults.New(1)
	in.PanicEveryNth(faults.Measure, 1, "sabotaged measurement")
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	_, cached, err := Resolve(context.Background(), op, model(t), lib, false, Options{Faults: in})
	if err == nil || cached {
		t.Fatalf("every finalist panics: want an error, got cached=%v err=%v", cached, err)
	}
	if sigs := lib.Signatures(); len(sigs) != 1 || sigs[0] != other.Name() {
		t.Fatalf("failed tune changed the library: %v", sigs)
	}
}

// TestResolveStaleEntryRetunes: a cached strategy that no longer compiles
// is deleted — Put keeps the faster entry, so only Delete can clear one
// with a tiny recorded time — and the fresh result takes its place.
func TestResolveStaleEntryRetunes(t *testing.T) {
	lib := cache.NewLibrary()
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	first, cached, err := Resolve(context.Background(), op, model(t), lib, false, Options{})
	if err != nil || cached {
		t.Fatalf("first resolve: cached=%v err=%v", cached, err)
	}
	hit, cached, err := Resolve(context.Background(), op, model(t), lib, false, Options{})
	if err != nil || !cached {
		t.Fatalf("second resolve should hit: cached=%v err=%v", cached, err)
	}
	if hit.Best.Strategy.String() != first.Best.Strategy.String() || hit.Best.Measured != first.Best.Measured ||
		hit.Valid != first.Valid || hit.Best.Program == nil {
		t.Fatalf("hit does not reproduce the tuned result:\n hit %+v\nwant %+v", hit, first)
	}

	e, _ := lib.Get(op.Name())
	e.Factors = map[string]int{"m": 1 << 20, "n": 1 << 20, "k": 1 << 20}
	e.SimulatedSeconds = 1e-12
	lib.Delete(op.Name())
	lib.Put(e)

	again, cached, err := Resolve(context.Background(), op, model(t), lib, false, Options{})
	if err != nil || cached {
		t.Fatalf("stale entry must retune: cached=%v err=%v", cached, err)
	}
	if again.Best.Strategy.String() != first.Best.Strategy.String() || again.Best.Measured != first.Best.Measured {
		t.Fatal("retune after a stale entry picked a different schedule")
	}
	if got, ok := lib.Get(op.Name()); !ok || got.Factors["m"] == 1<<20 {
		t.Fatalf("stale entry not replaced by the fresh result: %+v (present %v)", got, ok)
	}
}

// TestResolveNoTuneMiss: with tuning disabled a miss is errNoTune and runs
// no candidate; a hit still resolves.
func TestResolveNoTuneMiss(t *testing.T) {
	lib := cache.NewLibrary()
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	opts := Options{Metrics: metrics.NewRegistry()}
	if _, _, err := Resolve(context.Background(), op, model(t), lib, true, opts); !errors.Is(err, errNoTune) {
		t.Fatalf("want errNoTune, got %v", err)
	}
	if _, _, err := Resolve(context.Background(), op, model(t), nil, true, opts); !errors.Is(err, errNoTune) {
		t.Fatalf("no library: want errNoTune, got %v", err)
	}
	if n := opts.Metrics.Counter("autotune_candidates_total").Value(); n != 0 || lib.Len() != 0 {
		t.Fatalf("NoTune still tuned: %d candidates processed, %d entries", n, lib.Len())
	}
	if _, _, err := Resolve(context.Background(), op, model(t), lib, false, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := Resolve(context.Background(), op, model(t), lib, true, opts); err != nil || !cached {
		t.Fatalf("NoTune hit: cached=%v err=%v", cached, err)
	}
}
