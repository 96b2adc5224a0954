package ir

import (
	"fmt"
	"strings"
)

// Print renders a program as indented pseudo-code, the logical IR view of
// Fig. 4 (middle). It is the debugging surface and what golden tests match
// against.
func Print(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, t := range p.Tensors {
		role := "in"
		if t.Output {
			role = "out"
		}
		fmt.Fprintf(&b, "  tensor %s%v %s\n", t.Name, t.Dims, role)
	}
	printStmts(&b, p.Body, 1)
	return b.String()
}

func printStmts(b *strings.Builder, body []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range body {
		switch x := s.(type) {
		case *For:
			fmt.Fprintf(b, "%sfor %s in [0, %s):\n", ind, x.Iter, x.Extent)
			printStmts(b, x.Body, depth+1)
		case *If:
			fmt.Fprintf(b, "%sif %s:\n", ind, x.Cond)
			printStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%selse:\n", ind)
				printStmts(b, x.Else, depth+1)
			}
		case *Assign:
			fmt.Fprintf(b, "%s%s = %s\n", ind, x.Var, x.Val)
		case *AllocSPM:
			fmt.Fprintf(b, "%salloc_spm %s[%s]\n", ind, x.Buf, x.Elems)
		case *FreeSPM:
			fmt.Fprintf(b, "%sfree_spm %s\n", ind, x.Buf)
		case *RegionMove:
			fmt.Fprintf(b, "%sregion_%s %s%s -> %s+%s\n", ind, x.Dir, x.Tensor, regionStr(x.Start, x.Extent), x.Buf, x.BufOff)
		case *DMAOp:
			fmt.Fprintf(b, "%sdma_%s %s%s <-> %s+%s reply=%s\n", ind, x.Move.Dir, x.Move.Tensor,
				regionStr(x.Move.Start, x.Move.Extent), x.Move.Buf, x.Move.BufOff, x.Reply)
		case *DMAWait:
			fmt.Fprintf(b, "%sdma_wait %s x%s\n", ind, x.Reply, x.Times)
		case *Gemm:
			ta, tb := "", ""
			if x.ATrans {
				ta = "^T"
			}
			if x.BTrans {
				tb = "^T"
			}
			acc := "="
			if x.Accumulate {
				acc = "+="
			}
			fmt.Fprintf(b, "%sgemm %s+%s %s %s%s+%s x %s%s+%s [M=%s N=%s K=%s lda=%s ldb=%s ldc=%s %s]\n",
				ind, x.C, x.COff, acc, x.A, ta, x.AOff, x.B, tb, x.BOff, x.M, x.N, x.K, x.LDA, x.LDB, x.LDC, x.Vec)
		case *Transform:
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				args[i] = a.String()
			}
			fmt.Fprintf(b, "%s%s src=%s+%s dst=%s+%s (%s)\n", ind, x.Kind, x.Src, x.SrcOff, x.Dst, x.DstOff, strings.Join(args, ", "))
		case *Comment:
			fmt.Fprintf(b, "%s// %s\n", ind, x)
		default:
			fmt.Fprintf(b, "%s<unknown %T>\n", ind, s)
		}
	}
}

func regionStr(start, extent []Expr) string {
	parts := make([]string, len(start))
	for i := range start {
		parts[i] = fmt.Sprintf("%s:+%s", start[i], extent[i])
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
