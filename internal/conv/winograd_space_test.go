package conv_test

import (
	"slices"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/schedule"
	"swatop/internal/tensor"
)

// checkSpace is the differential check of one operator's whole schedule
// space: every point Dims.At(i) that compiles (every eighth under -race)
// runs functionally on conv.Bind's operands, and ref returns the operator's
// reference output without the ReLU epilogue and what the program wrote.
// The two must agree within tol once the reference is clamped at zero where
// relu is set, and the reference must hold values of both signs, or the
// clamp would go unchecked. It returns how many points compiled.
func checkSpace(t *testing.T, op dsl.Operator, relu bool, tol float64,
	ref func(binds map[string]*tensor.Tensor) (want, got *tensor.Tensor, err error)) int {
	t.Helper()
	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if raceEnabled {
		step = 8
	}
	compiled, neg, pos := 0, false, false
	for i := 0; i < dims.Size(); i += step {
		st := dims.At(i)
		prog, err := op.Compile(st)
		if err != nil {
			continue
		}
		compiled++
		binds, err := conv.Bind(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
			t.Fatalf("%s point %d (%v): %v", op.Name(), i, st, err)
		}
		want, got, err := ref(binds)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range want.Data {
			neg, pos = neg || v < 0, pos || v > 0
			if relu {
				want.Data[j] = max(v, 0)
			}
		}
		if d, err := tensor.MaxAbsDiff(want, got); err != nil || d > tol {
			t.Fatalf("%s point %d (%v): differs from the reference by %g (%v)", op.Name(), i, st, d, err)
		}
	}
	if compiled > 0 && !(neg && pos) {
		t.Fatalf("%s: the reference output holds one sign only", op.Name())
	}
	t.Logf("%s: %d of %d points checked", op.Name(), compiled, dims.Size())
	return compiled
}

// twin is a variant of an operator's shape: the ReLU epilogue, or the halo
// of a padded input.
type twin struct {
	relu bool
	pad  int
}

// epilogueTwins are the plain shape and its ReLU twin; convTwins add the
// padded one.
var (
	epilogueTwins = []twin{{}, {relu: true}}
	convTwins     = []twin{{}, {relu: true}, {pad: 1}}
)

// checkTwins runs checkSpace on the operator of each twin of a shape, the
// plain one first, against the reference of that twin: every twin's space
// must have exactly as many valid points as the plain one's.
func checkTwins(t *testing.T, twins []twin, build func(tw twin) (dsl.Operator, error), tol float64,
	ref func(tw twin) func(map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error)) {
	t.Helper()
	valid := make([]int, len(twins))
	for i, tw := range twins {
		op, err := build(tw)
		if err != nil {
			t.Fatal(err)
		}
		if valid[i] = checkSpace(t, op, tw.relu, tol, ref(tw)); valid[i] == 0 {
			t.Fatalf("%s: no point compiles", op.Name())
		}
		if valid[i] != valid[0] {
			t.Fatalf("%s: the space has %d valid points, its plain twin %d", op.Name(), valid[i], valid[0])
		}
	}
}

// twinShape is s as the twin tw.
func twinShape(s conv.Shape, tw twin) conv.Shape {
	s.ReLU, s.Pad = tw.relu, tw.pad
	return s
}

// convRef is the direct convolution of a program's in and weight, read
// through the 4-D weight that weight2d flattens where the program has one,
// against its out, read through the 4-D output of out2d where it has one.
// A point that binds the same in and weight as the one before it reuses
// its reference.
func convRef(s conv.Shape) func(map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
	s.ReLU = false
	var in, w, want *tensor.Tensor
	same := func(a, b *tensor.Tensor) bool {
		if a == nil {
			return false
		}
		d, err := tensor.MaxAbsDiff(a, b)
		return err == nil && d == 0
	}
	return func(binds map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
		wt, got := binds["weight"], binds["out"]
		if w2 := binds["weight2d"]; w2 != nil {
			wt = tensor.NewConvFilter(s)
			for f := range wt.Data {
				wt.Data[f] = w2.At(f/(s.Ni*s.Kr*s.Kc), f%(s.Ni*s.Kr*s.Kc))
			}
			var err error
			if got, err = conv.ExplicitOutput4D(binds["out2d"], s); err != nil {
				return nil, nil, err
			}
		}
		if !same(in, binds["in"]) || !same(w, wt) {
			var err error
			if want, err = tensor.ReferenceConv(binds["in"], wt, s); err != nil {
				return nil, nil, err
			}
			in, w = binds["in"], wt
		}
		return want.Clone(), got, nil
	}
}

// TestWinogradSpaceMatchesReference is a differential check over the whole
// Winograd schedule space of small shapes: in both forms, every point that
// compiles writes the direct convolution (tensor.ReferenceConv) within the
// reference tests' tolerance, and the packed form, the one a network runs,
// max(0, that) with the ReLU epilogue and the zero-padded convolution with a
// pad, which the per-call form rejects. The shapes take B = 2, Ni ≠ No,
// Ro ≠ Co, partial no and ni tiles, and a P that no p tile divides. In the
// last one, B = 8 images 96 columns wide, one row of tiles at 32 channels
// overflows the region, so that its packed space also tiles P in strips
// of 6, 12 and 24 tile columns; its middle row of tiles clips no row, so
// that its strips clip a column only at the image's edges.
func TestWinogradSpaceMatchesReference(t *testing.T) {
	shapes := []conv.Shape{
		{B: 2, Ni: 4, No: 8, Ro: 24, Co: 24, Kr: 3, Kc: 3},
		{B: 1, Ni: 36, No: 40, Ro: 10, Co: 8, Kr: 3, Kc: 3},
		{B: 2, Ni: 12, No: 8, Ro: 6, Co: 10, Kr: 3, Kc: 3},
		{B: 8, Ni: 32, No: 32, Ro: 6, Co: 96, Kr: 3, Kc: 3},
	}
	for _, s := range shapes {
		for _, perCall := range []bool{false, true} {
			build := func(tw twin) (dsl.Operator, error) {
				op, err := conv.NewWinogradOp(twinShape(s, tw))
				if err == nil {
					op.PerCall = perCall
				}
				return op, err
			}
			ref := func(tw twin) func(map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
				return convRef(twinShape(s, tw))
			}
			if !perCall {
				checkTwins(t, convTwins, build, 5e-2, ref)
				continue
			}
			for _, tw := range convTwins {
				op, err := build(tw)
				if err != nil {
					t.Fatal(err)
				}
				n := checkSpace(t, op, tw.relu, 5e-2, ref(tw))
				if plain := tw == (twin{}); (n == 0) == plain {
					t.Fatalf("%s: %d per-call points compile", op.Name(), n)
				}
			}
		}
	}
}

// TestEpilogueSpacesMatchReference is the same check over the implicit,
// explicit and GEMM spaces, each with and without the ReLU epilogue and a
// convolution also with a pad, on small shapes: B (or N) = 2, Ni ≠ No
// (M ≠ K), Ro ≠ Co and odd extents.
func TestEpilogueSpacesMatchReference(t *testing.T) {
	convs := []struct {
		method string
		s      conv.Shape
	}{
		{conv.Implicit, conv.Shape{B: 2, Ni: 16, No: 24, Ro: 5, Co: 7, Kr: 3, Kc: 3}},
		{conv.Implicit, conv.Shape{B: 2, Ni: 20, No: 12, Ro: 3, Co: 5, Kr: 1, Kc: 1}},
		{conv.Explicit, conv.Shape{B: 2, Ni: 3, No: 8, Ro: 5, Co: 7, Kr: 3, Kc: 3}},
		{conv.Explicit, conv.Shape{B: 2, Ni: 6, No: 4, Ro: 3, Co: 3, Kr: 1, Kc: 1}},
	}
	for _, c := range convs {
		twins := convTwins
		if c.s.Kr == 1 {
			twins = epilogueTwins
		}
		checkTwins(t, twins, func(tw twin) (dsl.Operator, error) {
			return conv.NewOp(c.method, twinShape(c.s, tw))
		}, 5e-2, func(tw twin) func(map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
			return convRef(twinShape(c.s, tw))
		})
	}
	for _, p := range []gemm.Params{{M: 20, N: 2, K: 36}, {M: 12, N: 5, K: 30}} {
		checkTwins(t, epilogueTwins, func(tw twin) (dsl.Operator, error) {
			p.ReLU = tw.relu
			return gemm.NewOp(p)
		}, 1e-3, func(twin) func(map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
			return func(binds map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
				want, err := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
				return want, binds["C"], err
			}
		})
	}
}

// TestWinogradStripGuard pins the packed space of every VGG16 3×3 layer, as
// the network builds it (ReLU and Pad = 1), at batches 1, 2, 4 and 8, by
// compiling alone. A space tiles P below one row only where one row of
// tiles at 32 channels overflows the SPM region, which no layer does at
// B ≤ 2: there its tiles are exactly the whole-row space's (32-, 64- and
// 128-channel tiles, 1, 2, 4 or 8 rows of tiles). Every layer with more
// than 8 input channels keeps a valid point whose no and ni tiles are at
// least 32 (all its channels where it has fewer), at every batch; conv1_1,
// with 3, keeps whole rows and its 8-channel output tiles at batch 8. A
// space that cuts a row into strips offers no 8-channel tile: an
// overflowing shape takes one of the two, and a row that no strip divides
// takes the 8-channel tiles whatever its channels.
func TestWinogradStripGuard(t *testing.T) {
	layers := 0
	for _, b := range []int{1, 2, 4, 8} {
		g, err := graph.VGG16(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Topo() {
			s := n.Conv
			if n.Kind != graph.Conv || !conv.WinogradApplies(s) {
				continue
			}
			op, err := conv.NewWinogradOp(s)
			if err != nil {
				t.Fatal(err)
			}
			layers++
			sp := op.Space()
			if b <= 2 {
				var rows []int
				for _, r := range dsl.TileMenu(s.Ro/2, []int{1, 2, 4, 8}) {
					rows = append(rows, r*s.Co/2*b)
				}
				if !slices.Equal(sp.Factors["p"], rows) || !slices.Equal(sp.Factors["no"], dsl.TileMenu(s.No, []int{32, 64, 128})) ||
					!slices.Equal(sp.Factors["ni"], dsl.TileMenu(s.Ni, []int{32, 64, 128})) {
					t.Fatalf("%s at batch %d: the packed space's tiles are %v, not whole rows at 32 channels and up", n.Name, b, sp.Factors)
				}
			}
			cuts := slices.ContainsFunc(sp.Factors["p"], func(fp int) bool { return fp%(s.Co/2*b) != 0 })
			if cuts && (slices.Contains(sp.Factors["no"], 8) || slices.Contains(sp.Factors["ni"], 8)) {
				t.Fatalf("%s at batch %d: the packed space has both strips and 8-channel tiles: %v", n.Name, b, sp.Factors)
			}
			if s.Ni <= 8 {
				if cuts {
					t.Fatalf("%s at batch %d: p tiles %v cut a row", n.Name, b, sp.Factors["p"])
				}
				continue
			}
			dims, err := schedule.Describe(op.Seed(), sp)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for i := 0; i < dims.Size() && !found; i++ {
				st := dims.At(i)
				if st.Factors["no"] < min(32, s.No) || st.Factors["ni"] < min(32, s.Ni) {
					continue
				}
				_, err := op.Compile(st)
				found = err == nil
			}
			if !found {
				t.Fatalf("%s at batch %d: no valid point of %v has 32-channel tiles", n.Name, b, sp.Factors)
			}
		}
	}
	if layers != 4*13 {
		t.Fatalf("%d VGG16 layers checked, want 13 at each of 4 batches", layers)
	}
	// VGG16's conv5 at batch 64: a row of 7 tiles overflows and no strip
	// divides it, so its space keeps the 8-channel tiles, and a point compiles.
	s := conv.Shape{B: 64, Ni: 512, No: 512, Ro: 14, Co: 14, Kr: 3, Kc: 3, Pad: 1, ReLU: true}
	op, err := conv.NewWinogradOp(s)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for i := 0; i < dims.Size(); i++ {
		if _, err := op.Compile(dims.At(i)); err == nil {
			valid++
		}
	}
	if f := op.Space().Factors; !slices.Contains(f["no"], 8) || !slices.Contains(f["ni"], 8) || valid == 0 {
		t.Fatalf("%v: %d of %d points of %v compile, want 8-channel tiles and one at least", s, valid, dims.Size(), f)
	}
}
