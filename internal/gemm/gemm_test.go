package gemm

import (
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/ir"
)

func TestSeedShape(t *testing.T) {
	s, err := Seed(Params{M: 64, N: 48, K: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Axes) != 3 || len(s.Tensors) != 3 {
		t.Fatalf("seed has %d axes, %d tensors", len(s.Axes), len(s.Tensors))
	}
	if _, err := Seed(Params{M: 0, N: 1, K: 1}); err == nil {
		t.Fatal("degenerate params must be rejected")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{M: 2, N: 3, K: 4}
	if p.FLOPs() != 48 {
		t.Fatalf("FLOPs = %d", p.FLOPs())
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
	if (Params{M: -1, N: 1, K: 1}).Validate() == nil {
		t.Fatal("negative dim must be invalid")
	}
}

func TestSpaceMenusClip(t *testing.T) {
	sp := Space(Params{M: 100, N: 8192, K: 300})
	for _, f := range sp.Factors["m"] {
		if f > 100 {
			t.Fatalf("m factor %d beyond extent", f)
		}
	}
	// Large extents keep the full menu but never the extent itself.
	for _, f := range sp.Factors["n"] {
		if f > 512 {
			t.Fatalf("n factor %d beyond menu", f)
		}
	}
	if len(sp.Orders) == 0 || len(sp.Vecs) != 2 {
		t.Fatal("space missing orders or vecs")
	}
}

func TestTileMenuTinyExtent(t *testing.T) {
	if got := dsl.TileMenu(5, []int{64, 128}); len(got) != 1 || got[0] != 5 {
		t.Fatalf("tiny extent menu = %v", got)
	}
	if got := dsl.TileMenu(64, []int{64, 128}); got[len(got)-1] != 64 {
		t.Fatalf("exact extent should be included: %v", got)
	}
}

func TestOpInterface(t *testing.T) {
	op, err := NewOp(Params{M: 64, N: 64, K: 64})
	if err != nil {
		t.Fatal(err)
	}
	if op.Name() == "" || op.Seed() == nil || op.Space() == nil {
		t.Fatal("incomplete operator")
	}
	st := dsl.Strategy{
		Factors: map[string]int{"m": 64, "n": 64, "k": 64},
		Layouts: map[string][]int{"C": {1, 0}},
		Vec:     ir.VecM,
	}
	prog, err := op.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	binds, err := conv.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		if binds[name] == nil {
			t.Fatalf("binding for %s missing", name)
		}
	}
	// Inputs patterned, outputs zeroed.
	if binds["A"].At(1, 1) == 0 && binds["A"].At(0, 1) == 0 {
		t.Fatal("input not patterned")
	}
	if binds["C"].At(1, 1) != 0 {
		t.Fatal("output not zeroed")
	}
	// Bind honours the chosen layout.
	if binds["C"].Strides[0] != 1 {
		t.Fatalf("C layout ignored: %v", binds["C"].Strides)
	}
}
