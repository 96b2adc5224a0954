package schedule

import (
	"testing"

	"swatop/internal/dsl"
	"swatop/internal/ir"
)

func seed() *dsl.Seed {
	s := dsl.NewSeed("op")
	s.AddAxis("m", 128, dsl.RoleM)
	s.AddAxis("n", 128, dsl.RoleN)
	s.AddAxis("k", 128, dsl.RoleK)
	s.AddTensor("A", []int{128, 128}, dsl.OperandA, dsl.Dim("m"), dsl.Dim("k"))
	s.AddTensor("B", []int{128, 128}, dsl.OperandB, dsl.Dim("k"), dsl.Dim("n"))
	s.AddTensor("C", []int{128, 128}, dsl.OperandC, dsl.Dim("m"), dsl.Dim("n"))
	return s
}

// enumerate collects Stream into a slice.
func enumerate(seed *dsl.Seed, sp *dsl.Space) (sts []dsl.Strategy, err error) {
	err = Stream(seed, sp, func(_ int, st dsl.Strategy) bool { sts = append(sts, st); return true })
	return sts, err
}

func TestEnumerateProduct(t *testing.T) {
	sp := dsl.NewSpace()
	sp.FactorVar("m", 32, 64)
	sp.FactorVar("n", 32)
	sp.Reorder("m", "n", "k")
	sp.Reorder("n", "m", "k")
	sp.Layout("A", 0, 1).Layout("A", 1, 0)
	sts, err := enumerate(seed(), sp)
	if err != nil {
		t.Fatal(err)
	}
	// 2 m × 1 n × 2 orders × 2 layouts × 2 vecs = 16
	if len(sts) != 16 {
		t.Fatalf("space = %d, want 16", len(sts))
	}
	seen := map[string]bool{}
	for _, st := range sts {
		key := st.String()
		if seen[key] {
			t.Fatalf("duplicate strategy %s", key)
		}
		seen[key] = true
	}
}

func TestEnumerateDedupsFactors(t *testing.T) {
	sp := dsl.NewSpace()
	sp.FactorVar("m", 32, 32, 32)
	sts, err := enumerate(seed(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 { // 1 factor × 2 vecs
		t.Fatalf("duplicates not removed: %d strategies", len(sts))
	}
}

func TestEnumerateDefaultsWhenSparse(t *testing.T) {
	sp := dsl.NewSpace()
	sp.FactorVar("m", 4096) // beyond extent: falls back to 1
	sts, err := enumerate(seed(), sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.Factors["m"] != 1 {
			t.Fatalf("invalid factor survived: %v", st)
		}
		if st.Padding != dsl.PadLightweight || st.DoubleBuffer != true {
			t.Fatalf("defaults wrong: %v", st)
		}
	}
}

func TestEnumerateOptionAxes(t *testing.T) {
	sp := dsl.NewSpace()
	sp.FactorVar("m", 32)
	sp.DoubleBuffer = []bool{false, true}
	sp.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
	sp.Vecs = []ir.VecDim{ir.VecM}
	sts, err := enumerate(seed(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 4 {
		t.Fatalf("want 4 option combos, got %d", len(sts))
	}
}

func TestStreamEarlyStop(t *testing.T) {
	sp := dsl.NewSpace()
	sp.FactorVar("m", 8, 16, 32, 64)
	sp.FactorVar("n", 8, 16, 32, 64)
	count := 0
	err := Stream(seed(), sp, func(idx int, st dsl.Strategy) bool {
		if idx != count {
			t.Fatalf("index %d out of order, want %d", idx, count)
		}
		count++
		return count < 3
	})
	if err != nil {
		t.Fatalf("early stop must not error: %v", err)
	}
	if count != 3 {
		t.Fatalf("stream emitted %d points after stop at 3", count)
	}
}

func TestStreamEmitsIndependentStrategies(t *testing.T) {
	sp := dsl.NewSpace()
	sp.FactorVar("m", 8, 16)
	var first, second dsl.Strategy
	_ = Stream(seed(), sp, func(idx int, st dsl.Strategy) bool {
		if idx == 0 {
			first = st
		} else if idx == 1 {
			second = st
			return false
		}
		return true
	})
	first.Factors["m"] = 999
	if second.Factors["m"] == 999 {
		t.Fatal("streamed strategies share factor maps")
	}
}

func TestStreamBypassesSpaceGuard(t *testing.T) {
	// Stream has no size guard and needs none: a space far too large to
	// materialise (the deleted Enumerate refused anything above 200 000
	// points) still streams, because a point is decoded from its index.
	big := dsl.NewSeed("op")
	big.AddAxis("m", 4096, dsl.RoleM)
	big.AddAxis("n", 4096, dsl.RoleN)
	big.AddAxis("k", 4096, dsl.RoleK)
	big.AddTensor("A", []int{4096, 4096}, dsl.OperandA, dsl.Dim("m"), dsl.Dim("k"))
	big.AddTensor("B", []int{4096, 4096}, dsl.OperandB, dsl.Dim("k"), dsl.Dim("n"))
	big.AddTensor("C", []int{4096, 4096}, dsl.OperandC, dsl.Dim("m"), dsl.Dim("n"))
	sp := dsl.NewSpace()
	var huge []int
	for f := 1; f <= 600; f++ {
		huge = append(huge, f)
	}
	sp.FactorVar("m", huge...)
	sp.FactorVar("n", huge...)
	d, err := Describe(big, sp)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 600*600*len(sp.Vecs) {
		t.Fatalf("Size() = %d, want %d", d.Size(), 600*600*len(sp.Vecs))
	}
	if last := d.At(d.Size() - 1); last.Factors["m"] != 600 || last.Factors["n"] != 600 {
		t.Fatalf("last point = %s", last)
	}
	count := 0
	if err := Stream(big, sp, func(idx int, st dsl.Strategy) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("stream emitted %d points, want 5", count)
	}
}

var allocSink dsl.Strategy // keeps a streamed point's maps from being optimised away

// TestStreamAllocsPerPoint: a streamed point allocates its two maps and
// nothing that grows with the digit count — a ten-digit space costs what a
// five-digit one does (same map sizes; only option digits are added).
func TestStreamAllocsPerPoint(t *testing.T) {
	s := seed()
	perPoint := func(sp *dsl.Space) float64 {
		d, err := Describe(s, sp)
		if err != nil {
			t.Fatal(err)
		}
		resolve := testing.AllocsPerRun(20, func() { _, _ = Describe(s, sp) })
		stream := testing.AllocsPerRun(20, func() {
			_ = Stream(s, sp, func(_ int, st dsl.Strategy) bool { allocSink = st; return true })
		})
		return (stream - resolve) / float64(d.Size())
	}
	narrow := dsl.NewSpace()
	narrow.FactorVar("m", 16, 32, 64)
	narrow.Layout("A", 0, 1).Layout("A", 1, 0)
	wide := dsl.NewSpace()
	wide.FactorVar("m", 16, 32, 64)
	wide.Layout("A", 0, 1).Layout("A", 1, 0)
	wide.Reorder("m", "n", "k")
	wide.Reorder("n", "m", "k")
	wide.DoubleBuffer = []bool{false, true}
	wide.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
	n, w := perPoint(narrow), perPoint(wide)
	t.Logf("allocs per streamed point: %.2f (5 digits), %.2f (8 digits)", n, w)
	if w > n+0.01 {
		t.Fatalf("allocations grow with the digit count: %.2f → %.2f per point", n, w)
	}
	if w > 4.1 {
		t.Fatalf("a point allocates %.2f objects, want its two maps (at most 4)", w)
	}
}

func TestEnumerateErrors(t *testing.T) {
	sp := dsl.NewSpace()
	sp.FactorVar("ghost", 2)
	if _, err := Describe(seed(), sp); err == nil {
		t.Fatal("unknown axis must error")
	}
	sp2 := dsl.NewSpace()
	sp2.Layout("Ghost", 0, 1)
	if _, err := Describe(seed(), sp2); err == nil {
		t.Fatal("unknown tensor must error")
	}
	sp3 := dsl.NewSpace()
	sp3.Vecs = nil
	if _, err := Describe(seed(), sp3); err == nil {
		t.Fatal("empty vec list must error")
	}
	if err := Stream(seed(), sp3, func(int, dsl.Strategy) bool { return true }); err == nil {
		t.Fatal("Stream must report Describe's error")
	}
}
