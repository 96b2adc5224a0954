package schedule

import (
	"testing"

	"swatop/internal/dsl"
	"swatop/internal/ir"
)

func describeSpace() *dsl.Space {
	sp := dsl.NewSpace()
	sp.FactorVar("m", 16, 32, 64)
	sp.FactorVar("n", 32, 64)
	sp.FactorVar("k", 32, 128)
	sp.Reorder("m", "n", "k")
	sp.Reorder("n", "m", "k")
	sp.Layout("A", 0, 1).Layout("A", 1, 0)
	sp.DoubleBuffer = []bool{false, true}
	sp.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
	return sp
}

// TestNearestIndexSelf: the radices multiply to the size, and a strategy
// already in the space maps to itself.
func TestNearestIndexSelf(t *testing.T) {
	d, err := Describe(seed(), describeSpace())
	if err != nil {
		t.Fatal(err)
	}
	prod := 1
	for _, r := range d.Radices() {
		prod *= r
	}
	if prod != d.Size() || prod <= 0 {
		t.Fatalf("radices %v multiply to %d, size %d", d.Radices(), prod, d.Size())
	}
	for i := 0; i < d.Size(); i++ {
		if got := d.NearestIndex(d.At(i)); got != i {
			t.Fatalf("NearestIndex(At(%d)) = %d", i, got)
		}
	}
}

// TestNearestIndexForeign: a strategy from another shape's space lands on
// the nearest legal factors (log-space distance).
func TestNearestIndexForeign(t *testing.T) {
	d, err := Describe(seed(), describeSpace())
	if err != nil {
		t.Fatal(err)
	}
	foreign := dsl.Strategy{
		Factors: map[string]int{"m": 48, "n": 256, "k": 2},
		Order:   []string{"k", "m", "n"}, // not a menu entry → first order
		Vec:     ir.VecN,
	}
	st := d.At(d.NearestIndex(foreign))
	// Relative distance: 48 → 64 (64/48≈1.33 beats 48/32=1.5); 256 → 64
	// (largest entry); 2 → 32 (smallest entry).
	if st.Factors["m"] != 64 || st.Factors["n"] != 64 || st.Factors["k"] != 32 {
		t.Fatalf("nearest factors = %v", st.Factors)
	}
	if st.Vec != ir.VecN {
		t.Fatalf("vec not preserved: %v", st.Vec)
	}
}
