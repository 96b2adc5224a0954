// Package codegen lowers optimized IR into the C code swATOP emits for the
// SW26010 toolchain (§4.7): an athread slave kernel using the tensorized
// primitives (spm_gemm variants, swDMA/swDMAWait) with all SPM buffers
// coalesced into one statically allocated region.
//
// On this reproduction the generated code cannot be compiled (the sw5cc
// toolchain and hardware are unavailable); it is emitted exactly as the
// real system would, and structural tests pin its shape.
package codegen

import (
	"fmt"
	"strings"

	"swatop/internal/ir"
)

// EmitC renders a complete C translation unit for a program.
func EmitC(p *ir.Program) (string, error) {
	g := &gen{}
	if err := g.collectBuffers(p); err != nil {
		return "", err
	}

	g.pf("// Generated by swATOP — operator %s\n", p.Name)
	g.pf("// Target: SW26010 CPE cluster (athread slave kernel)\n\n")
	g.pf("#include \"swatop_rt.h\"  // spm_gemm variants, swDMA, swDMAWait, transforms\n\n")
	g.pf("#define min(a,b) ((a) < (b) ? (a) : (b))\n")
	g.pf("#define max(a,b) ((a) > (b) ? (a) : (b))\n\n")

	// Coalesced SPM region (§4.7: "allocates all buffers into a single
	// coalesced region").
	if g.spmTotal > 0 {
		g.pf("// coalesced SPM region: %d floats per core group\n", g.spmTotal)
		g.pf("__thread_local float spm_region[%d];\n", g.spmTotal)
		for _, b := range g.bufOrder {
			g.pf("#define %s (spm_region + %d)\n", b, g.bufOffset[b])
		}
		g.pf("\n")
	}

	// Kernel signature: main-memory tensors as arguments.
	var args []string
	for _, t := range p.Tensors {
		args = append(args, "float *"+t.Name)
	}
	g.pf("void %s(%s) {\n", sanitize(p.Name), strings.Join(args, ", "))
	g.indent++
	g.pf("const int rid = athread_row(), cid = athread_col();\n")
	g.pf("(void)rid; (void)cid;\n")
	for _, r := range g.replies {
		g.pf("volatile swReplyWord %s = 0;\n", r)
	}
	if err := g.stmts(p.Body); err != nil {
		return "", err
	}
	g.indent--
	g.pf("}\n")
	return g.b.String(), nil
}

type gen struct {
	b         strings.Builder
	indent    int
	bufOffset map[string]int
	bufOrder  []string
	spmTotal  int
	replies   []string
	declared  map[string]bool
}

func (g *gen) pf(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("    ", g.indent))
	fmt.Fprintf(&g.b, format, args...)
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// collectBuffers performs the §4.7 memory optimization: every AllocSPM in
// the program receives a fixed offset in one coalesced region (buffers are
// not live simultaneously beyond their alloc/free span, but the static
// region uses the peak concurrent footprint — matching the allocator).
func (g *gen) collectBuffers(p *ir.Program) (err error) {
	g.bufOffset = map[string]int{}
	g.declared = map[string]bool{}
	cur := 0
	seenReply := map[string]bool{}
	ir.Walk(p.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AllocSPM:
			if _, ok := g.bufOffset[x.Buf]; !ok {
				elems, ok := ir.IsConst(x.Elems)
				if !ok {
					err = fmt.Errorf("codegen: non-constant size %s for SPM buffer %q", x.Elems, x.Buf)
				}
				g.bufOffset[x.Buf] = cur
				g.bufOrder = append(g.bufOrder, x.Buf)
				cur += int(elems)
			}
		case *ir.DMAOp:
			if !seenReply[x.Reply] {
				seenReply[x.Reply] = true
				g.replies = append(g.replies, "rw_"+sanitize(x.Reply))
			}
		}
		return true
	})
	g.spmTotal = cur
	return err
}

func (g *gen) stmts(body []ir.Stmt) error {
	for _, s := range body {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(s ir.Stmt) error {
	switch x := s.(type) {
	case *ir.Comment:
		g.pf("// %s\n", x)
	case *ir.AllocSPM, *ir.FreeSPM:
		// Static coalesced allocation: nothing at run time.
	case *ir.Assign:
		if g.declared[x.Var] {
			g.pf("%s = %s;\n", x.Var, x.Val)
		} else {
			g.declared[x.Var] = true
			g.pf("long %s = %s;\n", x.Var, x.Val)
		}
	case *ir.For:
		g.pf("for (long %s = 0; %s < %s; %s++) {\n", x.Iter, x.Iter, x.Extent, x.Iter)
		g.indent++
		saved := g.snapshotDecls()
		if err := g.stmts(x.Body); err != nil {
			return err
		}
		g.restoreDecls(saved)
		g.indent--
		g.pf("}\n")
	case *ir.If:
		g.pf("if (%s) {\n", x.Cond)
		g.indent++
		saved := g.snapshotDecls()
		if err := g.stmts(x.Then); err != nil {
			return err
		}
		g.restoreDecls(saved)
		g.indent--
		if len(x.Else) > 0 {
			g.pf("} else {\n")
			g.indent++
			saved = g.snapshotDecls()
			if err := g.stmts(x.Else); err != nil {
				return err
			}
			g.restoreDecls(saved)
			g.indent--
		}
		g.pf("}\n")
	case *ir.RegionMove:
		return fmt.Errorf("codegen: un-inferred RegionMove for %s (run optimizer.InferDMA first)", x.Tensor)
	case *ir.DMAOp:
		g.dma(x)
	case *ir.DMAWait:
		g.pf("swDMAWait(&rw_%s, %s);\n", sanitize(x.Reply), x.Times)
	case *ir.Gemm:
		g.gemm(x)
	case *ir.Transform:
		g.transform(x)
	default:
		return fmt.Errorf("codegen: unknown statement %T", s)
	}
	return nil
}

func (g *gen) snapshotDecls() map[string]bool {
	out := make(map[string]bool, len(g.declared))
	for k, v := range g.declared {
		out[k] = v
	}
	return out
}

func (g *gen) restoreDecls(saved map[string]bool) { g.declared = saved }

func (g *gen) dma(x *ir.DMAOp) {
	mv := &x.Move
	dir := "MEM_TO_SPM"
	if mv.Dir != ir.Get {
		dir = "SPM_TO_MEM"
	}
	// Flat main-memory offset: Σ start[d]·stride[d] — strides are baked by
	// the schedule's layout choice, emitted as a helper macro per tensor.
	var off []string
	for d := range mv.Start {
		off = append(off, fmt.Sprintf("(%s)*%s_stride%d", mv.Start[d], sanitize(mv.Tensor), d))
	}
	at := mv.Attrs()
	g.pf("// dma %s %s: block=%s stride=%s size=%s offset(rid,cid)=%s\n",
		mv.Dir, mv.Tensor, at.Block, at.Stride, at.Size, at.Offset)
	g.pf("swDMA(%s + %s, %s + %s, %s, %s, %s, %s, &rw_%s);\n",
		mv.Tensor, strings.Join(off, " + "),
		mv.Buf, mv.BufOff,
		at.Size, at.Block, at.Stride,
		dir, sanitize(x.Reply))
}

func (g *gen) gemm(x *ir.Gemm) {
	variant := "nn"
	if x.ATrans {
		variant = "tn"
	}
	if x.BTrans {
		variant = string(variant[0]) + "t"
	}
	vd := "SW_VEC_M"
	if x.Vec == ir.VecN {
		vd = "SW_VEC_N"
	}
	beta := "0.0f"
	if x.Accumulate {
		beta = "1.0f"
	}
	name := "spm_gemm_" + variant
	if x.Specialized {
		name += "_asm256"
	}
	g.pf("%s(%s, %s, %s, 1.0f, %s + %s, %s, %s + %s, %s, %s, %s + %s, %s, %s);\n",
		name, x.M, x.N, x.K,
		x.A, x.AOff, x.LDA,
		x.B, x.BOff, x.LDB,
		beta,
		x.C, x.COff, x.LDC, vd)
}

func (g *gen) transform(x *ir.Transform) {
	var args []string
	for _, a := range x.Args {
		args = append(args, a.String())
	}
	switch x.Kind {
	case ir.ZeroFill:
		g.pf("spm_zerofill(%s + %s, %s);\n", x.Dst, x.DstOff, args[0])
	case ir.CopySPM:
		g.pf("spm_copy(%s + %s, %s + %s, %s);\n", x.Src, x.SrcOff, x.Dst, x.DstOff, args[0])
	case ir.ReLU:
		g.pf("spm_relu(%s + %s, %s);\n", x.Dst, x.DstOff, args[0])
	default:
		g.pf("sw_%s(%s + %s, %s + %s, %s);\n", x.Kind, x.Src, x.SrcOff, x.Dst, x.DstOff, strings.Join(args, ", "))
	}
}
