package experiments

import (
	"context"
	"strings"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/gemm"
	"swatop/internal/sw26010"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{"substrate", "fig5", "fig6", "fig7", "table1", "fig8",
		"table2", "table3", "fig9", "fig10", "fig11"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Run == nil {
			t.Errorf("%s incomplete", id)
		}
	}
	if _, err := ByID("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestSubstrateExperiment(t *testing.T) {
	r := &Runner{Quick: true}
	tbl, err := runSubstrate(r)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"22.6 GB/s", "647.25 GB/s", "3.06 TFLOPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("substrate table missing %q", want)
		}
	}
}

func TestEfficiencyAccounting(t *testing.T) {
	eff, chip := Efficiency(sw26010.PeakGFlops*1e9, 1.0) // exactly peak for 1s
	if eff < 0.999 || eff > 1.001 {
		t.Fatalf("eff = %f, want 1.0", eff)
	}
	wantChip := sw26010.PeakGFlops * sw26010.NumCG / 1e3
	if chip < wantChip*0.999 || chip > wantChip*1.001 {
		t.Fatalf("chip = %f, want %f", chip, wantChip)
	}
}

func TestMethodApplies(t *testing.T) {
	small := conv.Shape{B: 1, Ni: 3, No: 8, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	if conv.Applies("implicit", small) {
		t.Fatal("implicit must exclude tiny Ni")
	}
	if !conv.Applies("explicit", small) {
		t.Fatal("explicit applies everywhere")
	}
	odd := conv.Shape{B: 1, Ni: 64, No: 64, Ro: 7, Co: 7, Kr: 3, Kc: 3}
	if conv.Applies("winograd", odd) {
		t.Fatal("winograd must exclude odd extents")
	}
}

func TestRunProgramAndTuners(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	gop, err := gemm.NewOp(gemm.Params{M: 64, N: 64, K: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Tune(context.Background(), gop, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Measured <= 0 {
		t.Fatal("non-positive measured time")
	}
	// Tune hands back the tuner's own run of the winner: a fresh run of the
	// winning program reads the same, bit for bit.
	if secs, err := RunProgram(res.Best.Program); err != nil || secs != res.Best.Measured {
		t.Fatalf("winner re-run %v (%v), tuner measured %v", secs, err, res.Best.Measured)
	}
	if _, err := conv.NewOp("bogus", conv.Shape{}); err == nil {
		t.Fatal("unknown method must error")
	}
	cop, err := conv.NewOp("implicit", conv.Shape{B: 32, Ni: 32, No: 32, Ro: 8, Co: 8, Kr: 3, Kc: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, blackBox := range []bool{false, true} {
		cres, err := r.Tune(context.Background(), cop, blackBox)
		if err != nil {
			t.Fatal(err)
		}
		if cres.Best.Measured <= 0 {
			t.Fatal("non-positive conv time")
		}
	}
}

func TestFig9SummaryMath(t *testing.T) {
	rows := []Fig9Row{{Ratio: 1.0}, {Ratio: 0.9}, {Ratio: 0.95}}
	avg, worst := Fig9Summary(rows)
	if worst != 0.9 {
		t.Fatalf("worst = %f", worst)
	}
	if avg < 0.949 || avg > 0.951 {
		t.Fatalf("avg = %f", avg)
	}
	if a, w := Fig9Summary(nil); a != 0 || w != 0 {
		t.Fatal("empty summary should be zero")
	}
}
