package ir

import (
	"math"
	"runtime"
	"testing"
)

// allocCost measures one call of run after a warm-up call: allocation count
// and allocated bytes, each the minimum over several calls — the runtime's
// own goroutines occasionally allocate in between, and a call that finds the
// walker pool emptied by a collection binds on fresh arenas.
func allocCost(run func()) (allocs, bytes uint64) {
	run()
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// everyIteration walks every iteration of every loop.
type everyIteration struct{ FirstPass }

func (everyIteration) Loop(extent int64, body Body) error {
	for i := int64(0); i < extent; i++ {
		if err := body.Run(i); err != nil {
			return err
		}
	}
	return nil
}

// TestBindAllocBudget: binding reuses its arenas. A bind on the arenas a
// walk of a same-size program released allocates nothing, and neither does
// its walk, at 12 trips or at 1200; on fresh arenas, the bytes a bind
// allocates follow the statement count and never the trip count.
func TestBindAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race: sync.Pool drops items at random")
	}
	prog := func(copies int, trips int64) *Program {
		p := &Program{Name: "budget", Tensors: []TensorDecl{{Name: "X", Dims: []int{8, 32}}}}
		p.Body = append(p.Body,
			&Assign{Var: "base0", Val: Const(1)},
			&AllocSPM{Buf: "a", Elems: Const(64 * 64)},
			&AllocSPM{Buf: "b", Elems: Const(64 * 64)},
			&AllocSPM{Buf: "c", Elems: Const(64 * 64)})
		for c := 0; c < copies; c++ {
			get := RegionMove{Tensor: "X", Dir: Get,
				Start:  []Expr{Const(0), Mod(V("i"), Const(8))},
				Extent: []Expr{Const(8), Const(24)},
				Buf:    "a", BufOff: Const(0)}
			p.Body = append(p.Body,
				&Assign{Var: "base", Val: Mul(V("base0"), Const(3))},
				&For{Iter: "i", Extent: Const(trips), Body: []Stmt{
					&DMAOp{Move: get, Reply: "r"},
					&If{Cond: Cond{Op: LT, L: V("i"), R: Const(2)},
						Then: []Stmt{&Assign{Var: "next_i", Val: Add(V("i"), V("base"))}},
						Else: []Stmt{&Assign{Var: "next_i", Val: Min(V("i"), Const(1<<40))}}},
					&Gemm{A: "a", B: "b", C: "c",
						M: Const(64), N: Min(Add(V("next_i"), Const(64)), Const(64)), K: Const(64),
						LDA: Const(64), LDB: Const(64), LDC: Const(64)},
					&DMAWait{Reply: "r", Times: Const(1)},
					&get, // an un-inferred move: issue + wait on the sync word
				}})
		}
		p.Body = append(p.Body, &FreeSPM{Buf: "a"}, &FreeSPM{Buf: "b"}, &FreeSPM{Buf: "c"})
		return p
	}
	var bytes [5]uint64
	for copies := 1; copies <= 4; copies++ {
		for _, trips := range []int64{12, 1200} {
			p := prog(copies, trips)
			if a, _ := allocCost(func() {
				if err := Bind(p).Run(everyIteration{}); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Fatalf("%d copies, %d trips: a bind on released arenas and its walk made %v allocations", copies, trips, a)
			}
			_, b := allocCost(func() { new(Walker).bind(p) })
			if trips == 12 {
				bytes[copies] = b
			} else if b != bytes[copies] {
				t.Fatalf("%d copies: a bind on fresh arenas allocates %d B at 12 trips, %d B at 1200", copies, bytes[copies], b)
			}
		}
	}
	t.Logf("fresh arenas: %d / %d / %d / %d B at 1..4 copies of 9 statements and 26 expressions",
		bytes[1], bytes[2], bytes[3], bytes[4])
	// In proportion, up to the arenas' growth by doubling: more statements
	// cost more, and four copies no more than four times one.
	for copies := 2; copies <= 4; copies++ {
		if bytes[copies] <= bytes[copies-1] || bytes[4] > 4*bytes[1] {
			t.Fatalf("bound bytes at 1..4 copies: %v", bytes[1:])
		}
	}
}
