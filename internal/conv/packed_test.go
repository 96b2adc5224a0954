package conv_test

import (
	"math"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/exec"
	"swatop/internal/goldenpoints"
	"swatop/internal/ir"
)

// TestPackedMatchesPerCall: at every Winograd golden point (the per-call
// form), the packed form of the same strategy compiles alike; run on
// conv.Bind's operands — the packed program reading U transformed on the
// host from the weight the per-call program transforms itself — it writes
// a bit-identical output, and timed it takes less time, by phase F. Under
// -race only the first point that compiles runs functionally.
func TestPackedMatchesPerCall(t *testing.T) {
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	var packed *conv.WinogradOp
	checked := 0
	for _, pt := range points {
		perCall, ok := pt.Op.(*conv.WinogradOp)
		if !ok {
			continue
		}
		if !perCall.PerCall || packed != nil && packed.S != perCall.S {
			t.Fatalf("golden Winograd operator %s is not one per-call shape", perCall.Name())
		}
		if packed == nil {
			if packed, err = conv.NewWinogradOp(perCall.S); err != nil {
				t.Fatal(err)
			}
			if packed.Name() != conv.OpName(conv.Winograd, perCall.S) || packed.Name() == perCall.Name() {
				t.Fatalf("packed form named %s, per-call %s", packed.Name(), perCall.Name())
			}
		}
		want, wantErr := perCall.Compile(pt.Strategy)
		got, err := packed.Compile(pt.Strategy)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("point %d: packed compile err %v, per-call %v", pt.Index, err, wantErr)
		}
		if err != nil {
			continue
		}
		functional := !raceEnabled || checked == 0
		wantOut, wantSecs := runBound(t, want, functional)
		gotOut, gotSecs := runBound(t, got, functional)
		for i := range wantOut {
			if math.Float32bits(gotOut[i]) != math.Float32bits(wantOut[i]) {
				t.Fatalf("point %d: packed output[%d] = %v, per-call %v", pt.Index, i, gotOut[i], wantOut[i])
			}
		}
		if gotSecs >= wantSecs {
			t.Fatalf("point %d: packed program takes %g s, per-call %g s", pt.Index, gotSecs, wantSecs)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no Winograd golden point compiles")
	}
}

// runBound returns prog's timed-only seconds and, if functional, the output
// it writes from conv.Bind's operands.
func runBound(t *testing.T, prog *ir.Program, functional bool) ([]float32, float64) {
	t.Helper()
	var out []float32
	if functional {
		binds, err := conv.Bind(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
			t.Fatal(err)
		}
		out = binds["out"].Data
	}
	res, err := exec.RunVirtual(prog, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out, res.Seconds
}
