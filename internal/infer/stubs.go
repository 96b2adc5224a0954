package infer

import (
	"fmt"

	"swatop/internal/graph"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// The glue layers between tuned operators (2×2 max-pooling, flatten) are
// memory-bound streaming kernels: every CPE pulls a tile of the feature map
// into SPM, applies a trivial per-element function and puts the result
// back. Their time model is the longer of the two channels that overlap in
// such a kernel — the DMA time of the bytes moved at effective bandwidth,
// and the per-element compute spread over the 64 CPEs.
func stubSeconds(bytes int64, elems int64, cyclesPerElem float64) float64 {
	dma := float64(bytes)/sw26010.DMAEffBandwidth + sw26010.DMAStartupSeconds
	cpu := sw26010.Seconds(cyclesPerElem * float64(elems) / sw26010.NumCPE)
	if cpu > dma {
		return cpu
	}
	return dma
}

// atFlat reads element `flat` of the tensor's logical row-major order.
// Concrete tensors may carry an operator-chosen layout or even a reshaped
// rank (the explicit conv's 2-D out2d standing in for a 4-D feature map);
// the logical flat order is the one thing all of them share, so the glue
// layers index through it.
func atFlat(t *tensor.Tensor, flat int) float32 {
	off := 0
	for d := len(t.Dims) - 1; d >= 0; d-- {
		off += (flat % t.Dims[d]) * t.Strides[d]
		flat /= t.Dims[d]
	}
	return t.Data[off]
}

// setFlat writes element `flat` of the tensor's logical row-major order.
func setFlat(t *tensor.Tensor, v float32, flat int) {
	off := 0
	for d := len(t.Dims) - 1; d >= 0; d-- {
		off += (flat % t.Dims[d]) * t.Strides[d]
		flat /= t.Dims[d]
	}
	t.Data[off] = v
}

func elemCount(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// runStub executes one glue node on the shared machine: it advances the
// compute clock by the stub's modelled time, records a transform event on
// the timeline, and (functionally) computes the real data through the
// logical-flat-order accessors so operator-chosen layouts never matter.
func runStub(m *sw26010.Machine, g *graph.Graph, n *graph.Node, ts map[string]*tensor.Tensor,
	functional bool, log *trace.Log) (float64, error) {
	inDims := mustDims(g, n.In[0])
	outDims := mustDims(g, n.Out)
	in, out := ts[n.In[0]], ts[n.Out]
	inElems, outElems := elemCount(inDims), elemCount(outDims)

	var secs float64
	switch n.Kind {
	case graph.Flatten:
		// The (C,H,W,B) -> (C·H·W, B) reshape preserves the logical flat
		// order exactly, so the "kernel" is a straight streaming copy.
		secs = stubSeconds(int64(8*outElems), int64(outElems), 0.5)
		if functional {
			for f := 0; f < outElems; f++ {
				setFlat(out, atFlat(in, f), f)
			}
		}
	case graph.MaxPool:
		// Each output element reads a 2×2 window and writes once.
		secs = stubSeconds(int64(4*(inElems+outElems)), int64(outElems), 4)
		if functional {
			c, h, w, b := outDims[0], outDims[1], outDims[2], outDims[3]
			ih, iw := inDims[1], inDims[2]
			for ci := 0; ci < c; ci++ {
				for hi := 0; hi < h; hi++ {
					for wi := 0; wi < w; wi++ {
						for bi := 0; bi < b; bi++ {
							f00 := ((ci*ih+2*hi)*iw+2*wi)*b + bi
							f01 := ((ci*ih+2*hi)*iw+2*wi+1)*b + bi
							f10 := ((ci*ih+2*hi+1)*iw+2*wi)*b + bi
							f11 := ((ci*ih+2*hi+1)*iw+2*wi+1)*b + bi
							v := atFlat(in, f00)
							for _, f := range [3]int{f01, f10, f11} {
								if x := atFlat(in, f); x > v {
									v = x
								}
							}
							setFlat(out, v, ((ci*h+hi)*w+wi)*b+bi)
						}
					}
				}
			}
		}
	default:
		return 0, fmt.Errorf("node %s: kind %q is not a glue stub", n.Name, n.Kind)
	}

	return chargeStub(m, string(n.Kind)+" "+n.Name, secs, log), nil
}

// chargeStub advances the machine by a glue kernel's modelled seconds and
// records it on the timeline under label.
func chargeStub(m *sw26010.Machine, label string, secs float64, log *trace.Log) float64 {
	start := m.Now()
	m.AdvanceCompute(secs)
	m.Counters.TransformOps++
	if log != nil {
		log.Add(trace.KindTransform, label, start, secs)
	}
	return m.Now() - start
}

// KindRelayout is the kind of the layer a view that needs a copy adds
// before its reader: no graph node, but glue all the same.
const KindRelayout graph.Kind = "relayout"

// relayout copies a view's graph tensor into the view's form, a streaming
// copy in the logical flat order charged as flatten's is, and returns its
// layer. Its baseline is zero: the manual library's ReLU stub, which the
// producer's baseline counts, writes the form its reader wants.
func relayout(m *sw26010.Machine, v *view, ts map[string]*tensor.Tensor, functional bool, log *trace.Log) Layer {
	src, dst := ts[v.src], ts[v.name]
	elems := elemCount(v.dims)
	if functional {
		for f := 0; f < elems; f++ {
			setFlat(dst, atFlat(src, f), f)
		}
	}
	l := Layer{Name: v.name, Kind: KindRelayout, Start: m.Now()}
	l.Seconds = chargeStub(m, "relayout "+v.name, stubSeconds(int64(8*elems), int64(elems), 0.5), log)
	return l
}
