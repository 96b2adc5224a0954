package swatop

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

var (
	tunerOnce sync.Once
	tuner     *Tuner
	tunerErr  error
)

func sharedTuner(t *testing.T) *Tuner {
	t.Helper()
	tunerOnce.Do(func() { tuner, tunerErr = NewTuner() })
	if tunerErr != nil {
		t.Fatal(tunerErr)
	}
	return tuner
}

func TestFacadeTuneGemm(t *testing.T) {
	tuned, err := sharedTuner(t).TuneGemm(GemmParams{M: 256, N: 256, K: 256})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Seconds() <= 0 || tuned.GFLOPS() <= 0 || tuned.SpaceSize() == 0 {
		t.Fatalf("degenerate result: %+v", tuned)
	}
	if tuned.Strategy() == "" {
		t.Fatal("missing strategy description")
	}
	maxErr, err := tuned.VerifyGemm()
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 2e-2 {
		t.Fatalf("verification error %g", maxErr)
	}
	src, err := tuned.EmitC()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "spm_gemm_") {
		t.Fatal("generated C missing primitive call")
	}
	if !strings.Contains(tuned.PrintIR(), "program") {
		t.Fatal("IR printing broken")
	}
}

func TestFacadeTuneConvAllMethods(t *testing.T) {
	s := ConvShape{B: 32, Ni: 64, No: 64, Ro: 16, Co: 16, Kr: 3, Kc: 3}
	for _, method := range []string{Implicit, Explicit, Winograd} {
		tuned, err := sharedTuner(t).TuneConv(method, s)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if tuned.Seconds() <= 0 {
			t.Fatalf("%s: non-positive time", method)
		}
		base, err := BaselineConvSeconds(method, s)
		if err != nil {
			t.Fatalf("%s baseline: %v", method, err)
		}
		t.Logf("%s: swATOP %.3gms vs manual %.3gms (%.2fx)",
			method, tuned.Seconds()*1e3, base*1e3, base/tuned.Seconds())
	}
}

func TestFacadeRejectsUnknownMethod(t *testing.T) {
	if _, err := sharedTuner(t).TuneConv("fft", ConvShape{B: 1, Ni: 16, No: 16, Ro: 8, Co: 8, Kr: 3, Kc: 3}); err == nil {
		t.Fatal("unknown method must be rejected")
	}
	if _, err := BaselineConvSeconds("fft", ConvShape{}); err == nil {
		t.Fatal("unknown baseline method must be rejected")
	}
}

func TestFacadeBatchOneStory(t *testing.T) {
	// The paper's headline inference story: swATOP handles batch 1, the
	// manual library does not.
	s := ConvShape{B: 1, Ni: 64, No: 64, Ro: 16, Co: 16, Kr: 3, Kc: 3}
	if _, err := sharedTuner(t).TuneConv(Implicit, s); err != nil {
		t.Fatalf("swATOP must handle batch 1: %v", err)
	}
	if _, err := BaselineConvSeconds(Implicit, s); err == nil {
		t.Fatal("swDNN baseline must reject batch 1")
	}
}

func TestFacadeLibraryCache(t *testing.T) {
	tn := sharedTuner(t)
	lib := NewLibrary()
	tn.UseLibrary(lib)
	defer tn.UseLibrary(nil)

	p := GemmParams{M: 128, N: 128, K: 128}
	first, err := tn.TuneGemm(p)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() != 1 {
		t.Fatalf("library has %d entries after tuning", lib.Len())
	}
	second, err := tn.TuneGemm(p) // cache hit: same schedule, no search
	if err != nil {
		t.Fatal(err)
	}
	if second.Strategy() != first.Strategy() || second.Seconds() != first.Seconds() {
		t.Fatal("cache hit returned a different schedule")
	}
	// Persistence round-trip.
	path := t.TempDir() + "/schedules.json"
	if err := lib.Save(path); err != nil {
		t.Fatal(err)
	}
	lib2 := NewLibrary()
	if err := lib2.Load(path); err != nil {
		t.Fatal(err)
	}
	tn.UseLibrary(lib2)
	third, err := tn.TuneGemm(p)
	if err != nil {
		t.Fatal(err)
	}
	if third.Strategy() != first.Strategy() {
		t.Fatal("persisted schedule differs")
	}
}

func TestFacadeStaleLibraryEntryRetunes(t *testing.T) {
	tn := sharedTuner(t)
	lib := NewLibrary()
	tn.UseLibrary(lib)
	defer tn.UseLibrary(nil)

	p := GemmParams{M: 192, N: 192, K: 192}
	first, err := tn.TuneGemm(p)
	if err != nil {
		t.Fatal(err)
	}
	sig := lib.Signatures()[0]
	// Poison the entry: a tile factor far beyond the SPM makes the cached
	// strategy uncompilable, and the tiny recorded time means the
	// keep-the-faster policy would shield it from Put forever — only an
	// explicit Delete can clear it.
	e, _ := lib.Get(sig)
	e.Factors = map[string]int{"m": 1 << 20, "n": 1 << 20, "k": 1 << 20}
	e.SimulatedSeconds = 1e-12
	lib.Delete(sig)
	lib.Put(e)

	second, err := tn.TuneGemm(p)
	if err != nil {
		t.Fatalf("stale entry must fall back to a fresh tuning: %v", err)
	}
	if second.Strategy() != first.Strategy() || second.Seconds() != first.Seconds() {
		t.Fatal("retune after stale entry picked a different schedule")
	}
	got, ok := lib.Get(sig)
	if !ok {
		t.Fatal("retune must restore the library entry")
	}
	if got.Factors["m"] == 1<<20 {
		t.Fatal("stale entry still cached after retuning")
	}
}

func TestFacadeParallelMatchesSequential(t *testing.T) {
	tn := sharedTuner(t)
	p := GemmParams{M: 256, N: 192, K: 128}
	seq, err := tn.TuneGemm(p)
	if err != nil {
		t.Fatal(err)
	}
	tn.SetWorkers(8)
	obs := NewObserver()
	tn.SetObserver(obs)
	defer func() {
		tn.SetWorkers(0)
		tn.SetObserver(nil)
	}()
	par, err := tn.TuneGemm(p)
	if err != nil {
		t.Fatal(err)
	}
	if par.Strategy() != seq.Strategy() || par.Seconds() != seq.Seconds() ||
		par.SpaceSize() != seq.SpaceSize() {
		t.Fatalf("parallel tuning differs from sequential:\nseq %s %.6g %d\npar %s %.6g %d",
			seq.Strategy(), seq.Seconds(), seq.SpaceSize(),
			par.Strategy(), par.Seconds(), par.SpaceSize())
	}
	if jobs := obs.Jobs().Snapshot(); len(jobs) != 1 || jobs[0].Done != par.SpaceSize() {
		t.Fatalf("live job reports %+v, want one job done with %d candidates", jobs, par.SpaceSize())
	}
}

func TestFacadeCancellation(t *testing.T) {
	tn := sharedTuner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tn.TuneGemmCtx(ctx, GemmParams{M: 256, N: 256, K: 256}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	s := ConvShape{B: 4, Ni: 32, No: 32, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	if _, err := tn.TuneConvCtx(ctx, Implicit, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("conv: want context.Canceled, got %v", err)
	}
}

func TestFacadeBaselineGemm(t *testing.T) {
	secs, err := BaselineGemmSeconds(GemmParams{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Fatal("non-positive baseline time")
	}
}
