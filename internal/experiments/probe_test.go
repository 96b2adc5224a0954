package experiments

import (
	"testing"

	"swatop/internal/baseline"
	"swatop/internal/conv"
	"swatop/internal/gemm"
)

// TestProbeHeadlineShapes is the calibration probe: on representative
// shapes, the qualitative results of the paper must hold. Run with -v to
// see the raw numbers.
func TestProbeHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}

	// --- Implicit conv vs swDNN, a mid VGG layer at batch 32.
	s := conv.Shape{B: 32, Ni: 256, No: 256, Ro: 28, Co: 28, Kr: 3, Kc: 3}
	tuned, err := r.TuneConv("implicit", s)
	if err != nil {
		t.Fatal(err)
	}
	manualProg, err := baseline.SwDNNImplicit(s)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := RunProgram(manualProg)
	if err != nil {
		t.Fatal(err)
	}
	eff, tf := Efficiency(s.FLOPs(), tuned.Best.Measured)
	t.Logf("implicit %v: swATOP %.4gms (eff %.0f%%, chip %.2f TF) vs swDNN %.4gms → speedup %.2fx (space %d)",
		s, tuned.Best.Measured*1e3, eff*100, tf, manual*1e3, manual/tuned.Best.Measured, tuned.Valid)
	if tuned.Best.Measured > manual {
		t.Errorf("swATOP implicit should not lose to swDNN")
	}

	// --- Winograd vs manual winograd, same layer.
	wt, err := r.TuneConv("winograd", s)
	if err != nil {
		t.Fatal(err)
	}
	mwProg, err := baseline.ManualWinograd(s)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := RunProgram(mwProg)
	if err != nil {
		t.Fatal(err)
	}
	weff, wtf := Efficiency(s.FLOPs(), wt.Best.Measured)
	t.Logf("winograd %v: swATOP %.4gms (dir-eff %.0f%%, chip %.2f TF) vs manual %.4gms → speedup %.2fx (space %d)",
		s, wt.Best.Measured*1e3, weff*100, wtf, mw*1e3, mw/wt.Best.Measured, wt.Valid)
	if wt.Best.Measured > mw {
		t.Errorf("swATOP winograd should beat the unfused manual version")
	}

	// --- Explicit conv vs manual explicit.
	et, err := r.TuneConv("explicit", s)
	if err != nil {
		t.Fatal(err)
	}
	meProg, err := baseline.ManualExplicit(s)
	if err != nil {
		t.Fatal(err)
	}
	me, err := RunProgram(meProg)
	if err != nil {
		t.Fatal(err)
	}
	eeff, etf := Efficiency(s.FLOPs(), et.Best.Measured)
	t.Logf("explicit %v: swATOP %.4gms (eff %.0f%%, chip %.2f TF) vs manual %.4gms → speedup %.2fx (space %d)",
		s, et.Best.Measured*1e3, eeff*100, etf, me*1e3, me/et.Best.Measured, et.Valid)

	// --- Batch-1 implicit works while swDNN cannot.
	s1 := conv.Shape{B: 1, Ni: 256, No: 256, Ro: 28, Co: 28, Kr: 3, Kc: 3}
	t1, err := r.TuneConv("implicit", s1)
	if err != nil {
		t.Fatal(err)
	}
	e1, tf1 := Efficiency(s1.FLOPs(), t1.Best.Measured)
	t.Logf("implicit batch1 %v: swATOP %.4gms (eff %.0f%%, chip %.2f TF)", s1, t1.Best.Measured*1e3, e1*100, tf1)
	if _, err := baseline.SwDNNImplicit(s1); err == nil {
		t.Error("swDNN should not support batch 1")
	}

	// --- GEMM vs xMath: aligned square (xMath should win slightly),
	// unaligned (swATOP should win big).
	for _, cfg := range []struct {
		p    gemm.Params
		note string
	}{
		{gemm.Params{M: 2048, N: 2048, K: 2048}, "aligned-square"},
		{gemm.Params{M: 2000, N: 500, K: 200}, "unaligned"},
		{gemm.Params{M: 8192, N: 256, K: 1024}, "aligned-skinny"},
	} {
		gt, err := r.TuneGemm(cfg.p)
		if err != nil {
			t.Fatal(err)
		}
		xmProg, err := baseline.XMathGemm(cfg.p)
		if err != nil {
			t.Fatal(err)
		}
		xm, err := RunProgram(xmProg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("gemm %s %v: swATOP %.4gms vs xMath %.4gms → speedup %+.1f%%",
			cfg.note, cfg.p, gt.Best.Measured*1e3, xm*1e3, (xm/gt.Best.Measured-1)*100)
	}
}
