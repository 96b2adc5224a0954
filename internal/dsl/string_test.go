package dsl_test

import (
	"fmt"
	"testing"

	"swatop/internal/dsl"
	"swatop/internal/goldenpoints"
	"swatop/internal/ir"
	"swatop/internal/schedule"
)

// referenceString is Strategy.String as it was written with += and one
// fmt.Sprintf per factor and per layout, kept verbatim: the rendering is the
// engine's timing-memo key, Layer.Strategy and a fingerprint input, so the
// builder must reproduce it byte for byte.
func referenceString(st dsl.Strategy) string {
	s := "tiles{"
	first := true
	// Render in a stable order: factors sorted by axis name.
	names := make([]string, 0, len(st.Factors))
	for n := range st.Factors {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, n := range names {
		if !first {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", n, st.Factors[n])
		first = false
	}
	s += "} order" + fmt.Sprint(st.Order)
	if len(st.Layouts) > 0 {
		tnames := make([]string, 0, len(st.Layouts))
		for n := range st.Layouts {
			tnames = append(tnames, n)
		}
		for i := 1; i < len(tnames); i++ {
			for j := i; j > 0 && tnames[j] < tnames[j-1]; j-- {
				tnames[j], tnames[j-1] = tnames[j-1], tnames[j]
			}
		}
		s += " lay{"
		for i, n := range tnames {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%s=%v", n, st.Layouts[n])
		}
		s += "}"
	}
	s += fmt.Sprintf(" %s db=%v pad=%s", st.Vec, st.DoubleBuffer, st.Padding)
	return s
}

// TestStrategyStringMatchesReference: String renders every point of every
// golden operator's widened space (both prefetch settings, both padding
// modes, both vector dimensions) exactly as the reference does, and so it
// does for the edge cases no space reaches: nil or empty maps and order,
// single entries, empty and wide permutations, large and negative factors.
func TestStrategyStringMatchesReference(t *testing.T) {
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checked := 0
	for _, pt := range points {
		if seen[pt.Op.Name()] {
			continue
		}
		seen[pt.Op.Name()] = true
		sp := *pt.Op.Space()
		sp.DoubleBuffer = []bool{true, false}
		sp.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
		dims, err := schedule.Describe(pt.Op.Seed(), &sp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < dims.Size(); i++ {
			st := dims.At(i)
			if got, want := st.String(), referenceString(st); got != want {
				t.Fatalf("%s[%d]:\n got %s\nwant %s", pt.Op.Name(), i, got, want)
			}
			checked++
		}
	}
	edge := []dsl.Strategy{
		{},
		{Factors: map[string]int{}, Order: []string{}, Layouts: map[string][]int{}},
		{Factors: map[string]int{"m": 1 << 40, "k": -3}, Order: []string{"k"}, Vec: ir.VecN, Padding: dsl.PadTraditional},
		{Factors: map[string]int{"b": 2, "a": 1}, Layouts: map[string][]int{"B": nil, "A": {}, "C": {10, 2, 0, 31, 4}}, DoubleBuffer: true},
		{Layouts: map[string][]int{"w": {1, 0}}, Vec: ir.VecN, DoubleBuffer: true},
	}
	for i, st := range edge {
		if got, want := st.String(), referenceString(st); got != want {
			t.Fatalf("edge case %d:\n got %s\nwant %s", i, got, want)
		}
	}
	if len(seen) < 4 || checked < 1000 {
		t.Fatalf("compared %d points of %d operators; the goldens have more", checked, len(seen))
	}
	t.Logf("%d points of %d operators and %d edge cases render alike", checked, len(seen), len(edge))
}
