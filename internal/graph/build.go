package graph

import (
	"fmt"

	"swatop/internal/tensor"
	"swatop/internal/workloads"
)

// Chain builds a sequential network from a convolution backbone plus an
// optional fully-connected tail — the structure of all three evaluation
// networks once their per-layer shapes are read off workloads tables.
// Every conv, and every GEMM layer but the last, carries the ReLU the
// network applies to its output as an epilogue (ConvShape.ReLU,
// gemm.Params.ReLU): the operator clamps its output in SPM before the put,
// so no ReLU node exists. Every conv with a kernel wider than 1×1, the
// first included, pads its input by (K−1)/2 (ConvShape.Pad) and reads it
// unpadded through its halo, so no pad node exists either and the network
// input is the unpadded image. Between consecutive convolutions Chain
// infers the one glue layer real networks carry: a 2×2 max-pool whenever
// the spatial resolution halves. A fully-connected tail gets a final pool
// (when the feature counts imply one) and a flatten.
func Chain(name string, batch int, convs []workloads.ConvLayer, fcs []workloads.FCLayer) (*Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("graph %s: non-positive batch %d", name, batch)
	}
	if len(convs) == 0 {
		return nil, fmt.Errorf("graph %s: no convolution layers", name)
	}
	g := New(name, batch)
	shape := func(l workloads.ConvLayer) tensor.ConvShape {
		s := l.Shape(batch)
		s.ReLU, s.Pad = true, (s.Kr-1)/2
		return s
	}

	first := shape(convs[0])
	if _, err := g.AddTensor("input", []int{first.Ni, first.Ri(), first.Ci(), first.B}, false); err != nil {
		return nil, err
	}
	g.Input = "input"

	cur := "input"   // current tensor, the feature map the next conv reads
	curC := first.Ni // channels of the live feature map
	curR := 0        // spatial extent of the live feature map (0 before conv1)

	for i, l := range convs {
		s := shape(l)
		if i > 0 {
			if s.Ni != curC {
				return nil, fmt.Errorf("graph %s: %s wants %d input channels, %s provides %d",
					name, l.Name, s.Ni, convs[i-1].Name, curC)
			}
			switch {
			case s.Ro == curR:
			case s.Ro*2 == curR:
				pooled := fmt.Sprintf("%s_pool", l.Name)
				if _, err := g.AddTensor(pooled, []int{curC, s.Ro, s.Ro, batch}, false); err != nil {
					return nil, err
				}
				if err := g.AddNode(&Node{
					Name: "pool_" + l.Name, Kind: MaxPool, In: []string{cur}, Out: pooled,
				}); err != nil {
					return nil, err
				}
				cur, curR = pooled, s.Ro
			default:
				return nil, fmt.Errorf("graph %s: cannot chain %s (R=%d) after R=%d: only same-resolution and 2×2-pool transitions exist",
					name, l.Name, s.Ro, curR)
			}
		}
		weight := fmt.Sprintf("w_%s", l.Name)
		if _, err := g.AddTensor(weight, []int{s.No, s.Ni, s.Kr, s.Kc}, true); err != nil {
			return nil, err
		}
		out := fmt.Sprintf("%s_out", l.Name)
		if _, err := g.AddTensor(out, []int{s.No, s.Ro, s.Co, batch}, false); err != nil {
			return nil, err
		}
		if err := g.AddNode(&Node{
			Name: l.Name, Kind: Conv, In: []string{cur, weight}, Out: out, Conv: s,
		}); err != nil {
			return nil, err
		}
		cur, curC, curR = out, s.No, s.Ro
	}
	g.Output = cur
	if len(fcs) == 0 {
		return g, g.Validate()
	}

	// Fully-connected tail: the first fc layer's feature count tells us
	// whether a final pooling stage sits between the last conv and the
	// flatten (VGG16's pool5 does).
	switch fcs[0].In {
	case curC * curR * curR:
		// flatten directly
	case curC * (curR / 2) * (curR / 2):
		pooled := "pool_final"
		if _, err := g.AddTensor(pooled, []int{curC, curR / 2, curR / 2, batch}, false); err != nil {
			return nil, err
		}
		if err := g.AddNode(&Node{Name: pooled, Kind: MaxPool, In: []string{cur}, Out: pooled}); err != nil {
			return nil, err
		}
		cur, curR = pooled, curR/2
	default:
		return nil, fmt.Errorf("graph %s: %s wants %d features, conv tail leaves %d×%d×%d",
			name, fcs[0].Name, fcs[0].In, curC, curR, curR)
	}
	flat := "flatten"
	if _, err := g.AddTensor(flat, []int{curC * curR * curR, batch}, false); err != nil {
		return nil, err
	}
	if err := g.AddNode(&Node{Name: flat, Kind: Flatten, In: []string{cur}, Out: flat}); err != nil {
		return nil, err
	}
	cur = flat
	for i, fc := range fcs {
		if i > 0 && fc.In != fcs[i-1].Out {
			return nil, fmt.Errorf("graph %s: %s.In = %d does not chain from %s.Out = %d",
				name, fc.Name, fc.In, fcs[i-1].Name, fcs[i-1].Out)
		}
		p := fc.Params(batch)
		p.ReLU = i < len(fcs)-1
		weight := fmt.Sprintf("w_%s", fc.Name)
		if _, err := g.AddTensor(weight, []int{p.M, p.K}, true); err != nil {
			return nil, err
		}
		out := fmt.Sprintf("%s_out", fc.Name)
		if _, err := g.AddTensor(out, []int{p.M, p.N}, false); err != nil {
			return nil, err
		}
		if err := g.AddNode(&Node{
			Name: fc.Name, Kind: Gemm, In: []string{cur, weight}, Out: out, Gemm: p,
		}); err != nil {
			return nil, err
		}
		cur = out
	}
	g.Output = cur
	return g, g.Validate()
}

// VGG16 builds the full VGG16 inference graph: 13 convolutions, 5 pooling
// stages and the 3 fully-connected layers down to the ImageNet logits.
func VGG16(batch int) (*Graph, error) {
	return Chain("vgg16", batch, workloads.VGG16(), workloads.VGG16FC())
}

// ResNet builds the sequential backbone over ResNet-50's distinct
// bottleneck convolution shapes (the stride-1 equivalents the workloads
// table records; the skip connections fold away at equal shapes).
func ResNet(batch int) (*Graph, error) {
	return Chain("resnet", batch, workloads.ResNet(), nil)
}

// Yolo builds the YOLOv1 backbone graph.
func Yolo(batch int) (*Graph, error) {
	return Chain("yolo", batch, workloads.Yolo(), nil)
}

// ByName builds one of the three evaluation networks by name.
func ByName(net string, batch int) (*Graph, error) {
	switch net {
	case "vgg16":
		return VGG16(batch)
	case "resnet":
		return ResNet(batch)
	case "yolo":
		return Yolo(batch)
	default:
		return nil, fmt.Errorf("graph: unknown network %q (want vgg16, resnet or yolo)", net)
	}
}
