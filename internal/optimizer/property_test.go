package optimizer_test

import (
	"testing"
	"testing/quick"

	"swatop/internal/conv"
	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/tensor"
)

// TestFullPipelinePropertyQuick is the strongest single property of the
// compiler: ANY schedule strategy that compiles must compute the right
// answer, across random problem sizes, tile factors, loop orders, layouts,
// vectorization choices and padding modes.
func TestFullPipelinePropertyQuick(t *testing.T) {
	orders := [][]string{
		{"m", "n", "k"}, {"n", "m", "k"}, {"k", "m", "n"},
		{"m", "k", "n"}, {"n", "k", "m"},
	}
	layouts := [][]int{{0, 1}, {1, 0}}
	factors := []int{4, 8, 12, 16, 20, 32}

	checked := 0
	f := func(m0, n0, k0, fm0, fn0, fk0, ord0, la0, lb0, lc0, vec0, pad0 uint8) bool {
		p := gemm.Params{
			M: int(m0%48) + 4,
			N: int(n0%48) + 4,
			K: int(k0%48) + 4,
		}
		st := dsl.Strategy{
			Factors: map[string]int{
				"m": factors[int(fm0)%len(factors)],
				"n": factors[int(fn0)%len(factors)],
				"k": factors[int(fk0)%len(factors)],
			},
			Order: orders[int(ord0)%len(orders)],
			Layouts: map[string][]int{
				"A": layouts[int(la0)%2],
				"B": layouts[int(lb0)%2],
				"C": layouts[int(lc0)%2],
			},
			Vec:          ir.VecDim(int(vec0) % 2),
			DoubleBuffer: true,
			Padding:      dsl.PaddingMode(int(pad0) % 2),
		}
		// Clamp factors to extents (the scheduler normally does this).
		for ax, e := range map[string]int{"m": p.M, "n": p.N, "k": p.K} {
			if st.Factors[ax] > e {
				st.Factors[ax] = e
			}
		}
		seed, err := gemm.Seed(p)
		if err != nil {
			return false
		}
		prog, err := core.Compile(seed, st)
		if err != nil {
			return true // invalid point: pruned, not wrong
		}
		binds, err := conv.Bind(prog)
		if err != nil {
			return false
		}
		if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
			t.Logf("exec failed for %v %v: %v", p, st, err)
			return false
		}
		want, err := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
		if err != nil {
			return false
		}
		if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 5e-2 {
			t.Logf("wrong result (%g) for %v %v", d, p, st)
			return false
		}
		checked++
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if checked < 20 {
		t.Fatalf("only %d random schedules actually compiled; property too weak", checked)
	}
}

// TestFastLoopPropertyQuick: fast-forwarded timing must stay within a few
// percent of exact timing for arbitrary compiled schedules.
func TestFastLoopPropertyQuick(t *testing.T) {
	f := func(m0, n0, k0, fm0 uint8) bool {
		p := gemm.Params{
			M: int(m0%4)*64 + 128,
			N: int(n0%4)*64 + 128,
			K: int(k0%4)*64 + 128,
		}
		fac := []int{16, 32, 64}[int(fm0)%3]
		st := dsl.Strategy{
			Factors:      map[string]int{"m": fac, "n": fac, "k": fac},
			Order:        []string{"m", "n", "k"},
			Layouts:      map[string][]int{"C": {1, 0}},
			Vec:          ir.VecM,
			DoubleBuffer: true,
		}
		seed, err := gemm.Seed(p)
		if err != nil {
			return false
		}
		prog, err := core.Compile(seed, st)
		if err != nil {
			return true
		}
		b1, err := exec.BindVirtual(prog)
		if err != nil {
			return false
		}
		exact, err := exec.Run(prog, b1, exec.Options{})
		if err != nil {
			return false
		}
		b2, _ := exec.BindVirtual(prog)
		fast, err := exec.Run(prog, b2, exec.Options{FastLoops: true})
		if err != nil {
			return false
		}
		rel := fast.Seconds/exact.Seconds - 1
		if rel < -0.06 || rel > 0.06 {
			t.Logf("%v tiles %d: fast %.4g exact %.4g (%.1f%%)", p, fac, fast.Seconds, exact.Seconds, rel*100)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
