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
	"swatop/internal/dsl"
	"swatop/internal/goldenpoints"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/estimate_golden.json from the current code")

const goldenPath = "testdata/estimate_golden.json"

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

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenRows evaluates the fixed point list with the current code and
// reports which schedule switches the list exercised.
func goldenRows(t *testing.T) (rows []goldenRow, covered map[string]bool) {
	t.Helper()
	m := model(t)
	covered = map[string]bool{}
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		row := goldenRow{Op: pt.Op.Name(), Index: pt.Index}
		st := pt.Strategy
		prog, err := pt.Op.Compile(st)
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
			t.Fatalf("%s[%d]: emit: %v", row.Op, row.Index, err)
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
