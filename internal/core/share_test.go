package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/goldenpoints"
	"swatop/internal/ir"
)

// TestCompiledProgramsShareNoEmittedNode: the prefetch pass and the nest
// builder take a compile's nodes and statement lists from backing arrays
// of their own, so outside an operator's shared prefix (core.Prefix) no
// statement and no statement list of one program is part of another. Each
// golden operator compiles one strategy twice and a second one once,
// concurrently (the race detector sees them under make race), and the
// first program prints the same after all of them.
func TestCompiledProgramsShareNoEmittedNode(t *testing.T) {
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[goldenpoints.Op][]dsl.Strategy{}
	var ops []goldenpoints.Op
	for _, pt := range points {
		sts := byOp[pt.Op]
		if len(sts) == 2 || !pt.Strategy.DoubleBuffer {
			continue
		}
		if _, err := pt.Op.Compile(pt.Strategy); err != nil {
			continue
		}
		if sts == nil {
			ops = append(ops, pt.Op)
		}
		byOp[pt.Op] = append(sts, pt.Strategy)
	}
	type job struct {
		op goldenpoints.Op
		st dsl.Strategy
	}
	var jobs []job
	for _, op := range ops {
		sts := byOp[op]
		if len(sts) != 2 {
			t.Fatalf("%s: %d double-buffered golden points compile, want 2", op.Name(), len(sts))
		}
		jobs = append(jobs, job{op, sts[0]}, job{op, sts[0]}, job{op, sts[1]})
	}
	progs := make([]*ir.Program, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			progs[i], errs[i] = j.op.Compile(j.st)
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", jobs[i].op.Name(), err)
		}
	}
	first := ir.Print(progs[0])

	// owner maps every statement and every list's backing array outside the
	// shared prefixes to the program it was found in.
	owner := map[any]int{}
	claim := func(i int, key any, what string) {
		if o, ok := owner[key]; ok && o != i {
			t.Errorf("%s of %s[%d] is also in %s[%d]", what, jobs[i].op.Name(), i, jobs[o].op.Name(), o)
		}
		owner[key] = i
	}
	list := func(i int, l []ir.Stmt) {
		if len(l) > 0 {
			claim(i, &l[0], "a statement list")
		}
	}
	for i, p := range progs {
		own := p.Body[ownStart(t, jobs[i].op, p):]
		if i%3 != 0 {
			// The prefix of a program of the operator before it is its own.
			prev := progs[i-1].Body
			for k := range p.Body[:len(p.Body)-len(own)] {
				if p.Body[k] != prev[k] {
					t.Errorf("%s[%d]: prefix statement %d is not shared", jobs[i].op.Name(), i, k)
				}
			}
		}
		ir.Walk(own, func(s ir.Stmt) bool {
			claim(i, s, fmt.Sprintf("statement %T", s))
			switch x := s.(type) {
			case *ir.For:
				list(i, x.Body)
			case *ir.If:
				list(i, x.Then)
				list(i, x.Else)
			}
			return true
		})
	}
	if ir.Print(progs[0]) != first {
		t.Fatal("the first program printed differently after the other compiles")
	}
}

// ownStart is where a program's own statements begin: after the shared
// prefix of an explicit (im2col) or Winograd (transforms F and I) operator,
// at the first statement of the others.
func ownStart(t *testing.T, op goldenpoints.Op, p *ir.Program) int {
	var first string
	switch op.(type) {
	case *conv.ExplicitOp:
		first = "strategy: "
	case *conv.WinogradOp:
		first = "phase G"
	default:
		return 0
	}
	for k, s := range p.Body {
		if c, ok := s.(*ir.Comment); ok && strings.HasPrefix(c.Text, first) {
			return k
		}
	}
	t.Fatalf("%s: no %q comment at top level", op.Name(), first)
	return 0
}
