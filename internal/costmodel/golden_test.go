package costmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"swatop/internal/codegen"
	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/schedule"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/estimate_golden.json from the current code")

const goldenPath = "testdata/estimate_golden.json"

// goldenPointsPerOp schedule points are sampled from every operator's space.
const goldenPointsPerOp = 24

// goldenRow pins one (operator, schedule index) point: the bit patterns of
// all four Estimate fields and the SHA-256 of the emitted C. Err holds the
// compile/estimate error text of points the pipeline rejects.
type goldenRow struct {
	Op              string `json:"op"`
	Index           int    `json:"index"`
	DMA             string `json:"dma,omitempty"`
	Compute         string `json:"compute,omitempty"`
	DMABytes        string `json:"dma_bytes,omitempty"`
	DMATransactions string `json:"dma_transactions,omitempty"`
	CSHA256         string `json:"c_sha256,omitempty"`
	Err             string `json:"err,omitempty"`
}

type goldenOp interface {
	Name() string
	Seed() *dsl.Seed
	Space() *dsl.Space
	Compile(dsl.Strategy) (*ir.Program, error)
}

func goldenOps(t *testing.T) []goldenOp {
	t.Helper()
	vgg := conv.Shape{B: 1, Ni: 128, No: 128, Ro: 56, Co: 56, Kr: 3, Kc: 3}
	batched := conv.Shape{B: 8, Ni: 64, No: 96, Ro: 14, Co: 14, Kr: 3, Kc: 3}
	var ops []goldenOp
	add := func(op goldenOp, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	add(gemm.NewOp(gemm.Params{M: 200, N: 200, K: 200}))
	add(gemm.NewOp(gemm.Params{M: 512, N: 128, K: 256}))
	add(conv.NewImplicitOp(vgg))
	add(conv.NewImplicitOp(batched))
	add(conv.NewExplicitOp(batched))
	add(conv.NewWinogradOp(batched))
	return ops
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenRows evaluates the fixed point list with the current code and
// reports which schedule switches the list exercised.
func goldenRows(t *testing.T) (rows []goldenRow, covered map[string]bool) {
	t.Helper()
	m := model(t)
	covered = map[string]bool{}
	for _, op := range goldenOps(t) {
		// The operators' own spaces fix prefetch on and lightweight padding;
		// widen both so the list reaches the other arms of the pipeline.
		sp := *op.Space()
		sp.DoubleBuffer = []bool{true, false}
		sp.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
		dims, err := schedule.Describe(op.Seed(), &sp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < goldenPointsPerOp; i++ {
			idx := (i*7919 + 13) % dims.Size()
			row := goldenRow{Op: op.Name(), Index: idx}
			st := dims.At(idx)
			prog, err := op.Compile(st)
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			est, err := EstimateProgram(m, prog)
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			src, err := codegen.EmitC(prog)
			if err != nil {
				t.Fatalf("%s[%d]: emit: %v", op.Name(), idx, err)
			}
			sum := sha256.Sum256([]byte(src))
			row.DMA, row.Compute = bits(est.DMA), bits(est.Compute)
			row.DMABytes, row.DMATransactions = bits(est.DMABytes), bits(est.DMATransactions)
			row.CSHA256 = hex.EncodeToString(sum[:])
			rows = append(rows, row)

			covered[fmt.Sprintf("prefetch=%v", st.DoubleBuffer)] = true
			covered[fmt.Sprintf("padding=%d", st.Padding)] = true
			for _, l := range st.Layouts {
				for d, p := range l {
					if d != p {
						covered["layout=permuted"] = true
					}
				}
			}
		}
	}
	return rows, covered
}

// TestEstimateAndCodegenGolden is the characterisation of the compiler front
// end's two outputs: every Estimate field bit for bit and the emitted C byte
// for byte, over GEMM and implicit/explicit/Winograd convolution at schedule
// points covering prefetch on/off, both padding modes and permuted layouts.
func TestEstimateAndCodegenGolden(t *testing.T) {
	rows, covered := goldenRows(t)
	for _, want := range []string{
		"prefetch=true", "prefetch=false",
		fmt.Sprintf("padding=%d", dsl.PadLightweight), fmt.Sprintf("padding=%d", dsl.PadTraditional),
		"layout=permuted",
	} {
		if !covered[want] {
			t.Errorf("golden point list never exercises %s", want)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("golden has %d rows, code produced %d", len(want), len(rows))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("row %d differs:\n got %+v\nwant %+v", i, rows[i], want[i])
		}
	}
}
