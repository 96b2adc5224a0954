package graph

import (
	"reflect"
	"testing"

	"swatop/internal/workloads"
)

func TestVGG16GraphStructure(t *testing.T) {
	g, err := VGG16(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CountKind(Conv); got != 13 {
		t.Fatalf("%d conv nodes, want 13", got)
	}
	if got := g.CountKind(Gemm); got != 3 {
		t.Fatalf("%d gemm nodes, want 3", got)
	}
	if got := g.CountKind(MaxPool); got != 5 {
		t.Fatalf("%d pool stages, want 5", got)
	}
	// Every conv, conv1_1 included, pads its input by one through its halo
	// and reads the previous layer's output (or the image) as it is: the
	// nodes are the 13 convs, 5 pools, the flatten and the 3 fcs.
	for _, n := range g.Topo() {
		if n.Kind == Conv && n.Conv.Pad != 1 {
			t.Fatalf("%s pads by %d, want 1", n.Name, n.Conv.Pad)
		}
	}
	if got := g.NumNodes(); got != 22 {
		t.Fatalf("%d nodes, want 22", got)
	}
	// ReLU is the epilogue of all 13 convs and of fc6/fc7 (not fc8).
	relus := 0
	for _, n := range g.Topo() {
		if n.Conv.ReLU || n.Gemm.ReLU {
			relus++
		}
	}
	if relus != 15 {
		t.Fatalf("%d nodes carry the ReLU epilogue, want 15", relus)
	}
	if g.CountKind(Flatten) != 1 {
		t.Fatal("want exactly one flatten")
	}
	out, ok := g.Tensor(g.Output)
	if !ok || !reflect.DeepEqual(out.Dims, []int{1000, 4}) {
		t.Fatalf("output tensor %v, want the (1000, batch) logits", out)
	}
	in, _ := g.Tensor(g.Input)
	if !reflect.DeepEqual(in.Dims, []int{3, 224, 224, 4}) {
		t.Fatalf("input tensor %v, want the unpadded image (3,224,224,4)", in.Dims)
	}
	// FLOPs must cover conv and fc work.
	var want int64
	for _, l := range workloads.VGG16() {
		want += l.Shape(4).FLOPs()
	}
	for _, fc := range workloads.VGG16FC() {
		want += fc.Params(4).FLOPs()
	}
	if got := g.FLOPs(); got != want {
		t.Fatalf("FLOPs = %d, want %d", got, want)
	}
}

func TestAllNetworksBuildAndValidate(t *testing.T) {
	for _, net := range []string{"vgg16", "resnet", "yolo"} {
		for _, batch := range []int{1, 32} {
			g, err := ByName(net, batch)
			if err != nil {
				t.Fatalf("%s batch %d: %v", net, batch, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s batch %d: %v", net, batch, err)
			}
			if got := g.CountKind(Conv); got != 13 {
				t.Fatalf("%s: %d conv layers, want 13", net, got)
			}
		}
	}
	if _, err := ByName("alexnet", 1); err == nil {
		t.Fatal("unknown network must error")
	}
	if _, err := ByName("vgg16", 0); err == nil {
		t.Fatal("non-positive batch must error")
	}
}

// TestTopoDeterministic: two builds of the same network must yield the
// identical node order, and every node's inputs must be produced before it
// (the invariant AddNode enforces).
func TestTopoDeterministic(t *testing.T) {
	a, err := VGG16(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := VGG16(1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Topo(), b.Topo()
	if len(ta) != len(tb) {
		t.Fatalf("node counts differ: %d vs %d", len(ta), len(tb))
	}
	produced := map[string]bool{a.Input: true}
	for i, n := range ta {
		if n.Name != tb[i].Name {
			t.Fatalf("order diverges at %d: %s vs %s", i, n.Name, tb[i].Name)
		}
		for _, in := range n.In {
			tt, _ := a.Tensor(in)
			if !tt.Param && !produced[in] {
				t.Fatalf("node %s reads %q before it is produced", n.Name, in)
			}
		}
		produced[n.Out] = true
	}
}

func TestChainRejectsBrokenBackbones(t *testing.T) {
	mk := func(layers ...workloads.ConvLayer) error {
		_, err := Chain("bad", 1, layers, nil)
		return err
	}
	// Channel mismatch.
	if err := mk(
		workloads.ConvLayer{Net: "bad", Name: "c1", Ni: 3, No: 16, R: 8, K: 3},
		workloads.ConvLayer{Net: "bad", Name: "c2", Ni: 32, No: 16, R: 8, K: 3},
	); err == nil {
		t.Fatal("channel mismatch must not chain")
	}
	// Impossible resolution jump.
	if err := mk(
		workloads.ConvLayer{Net: "bad", Name: "c1", Ni: 3, No: 16, R: 9, K: 3},
		workloads.ConvLayer{Net: "bad", Name: "c2", Ni: 16, No: 16, R: 5, K: 3},
	); err == nil {
		t.Fatal("non-pool resolution change must not chain")
	}
	// FC feature count off.
	if _, err := Chain("bad", 1,
		[]workloads.ConvLayer{{Net: "bad", Name: "c1", Ni: 3, No: 16, R: 8, K: 3}},
		[]workloads.FCLayer{{Net: "bad", Name: "fc", In: 999, Out: 10}},
	); err == nil {
		t.Fatal("fc feature mismatch must not chain")
	}
}

func TestAddNodeRejectsMalformedGraphs(t *testing.T) {
	g := New("t", 1)
	if _, err := g.AddTensor("x", []int{1, 4, 4, 1}, false); err != nil {
		t.Fatal(err)
	}
	g.Input = "x"
	if _, err := g.AddTensor("x", []int{1, 4, 4, 1}, false); err == nil {
		t.Fatal("duplicate tensor must error")
	}
	if _, err := g.AddTensor("neg", []int{0}, false); err == nil {
		t.Fatal("non-positive dim must error")
	}
	if err := g.AddNode(&Node{Name: "r", Kind: MaxPool, In: []string{"ghost"}, Out: "x"}); err == nil {
		t.Fatal("undeclared input must error")
	}
	if _, err := g.AddTensor("y", []int{1, 2, 2, 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{Name: "r", Kind: MaxPool, In: []string{"y"}, Out: "x"}); err == nil {
		t.Fatal("reading an unproduced activation must error (cycle guard)")
	}
	if err := g.AddNode(&Node{Name: "r", Kind: MaxPool, In: []string{"x"}, Out: "y"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{Name: "r2", Kind: MaxPool, In: []string{"x"}, Out: "y"}); err == nil {
		t.Fatal("double-producing a tensor must error")
	}
	if err := g.AddNode(&Node{Name: "r", Kind: MaxPool, In: []string{"y"}, Out: "y"}); err == nil {
		t.Fatal("duplicate node name must error")
	}
	g.Output = "y"
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Producer("y") != "r" || g.Producer("x") != "" {
		t.Fatalf("bookkeeping wrong: producer(y)=%q producer(x)=%q", g.Producer("y"), g.Producer("x"))
	}
}

func TestValidateCatchesShapeLies(t *testing.T) {
	g := New("t", 2)
	if _, err := g.AddTensor("in", []int{8, 10, 10, 2}, false); err != nil {
		t.Fatal(err)
	}
	g.Input = "in"
	if _, err := g.AddTensor("w", []int{16, 8, 3, 3}, true); err != nil {
		t.Fatal(err)
	}
	// Output dims lie about No.
	if _, err := g.AddTensor("out", []int{99, 8, 8, 2}, false); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{
		Name: "c", Kind: Conv, In: []string{"in", "w"}, Out: "out",
		Conv: workloads.ConvLayer{Ni: 8, No: 16, R: 8, K: 3}.Shape(2),
	}); err != nil {
		t.Fatal(err)
	}
	g.Output = "out"
	if err := g.Validate(); err == nil {
		t.Fatal("shape mismatch must fail validation")
	}
}
