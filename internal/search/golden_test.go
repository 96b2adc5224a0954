package search

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"swatop/internal/costmodel"
	"swatop/internal/goldenpoints"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/features_golden.json from the current code")

const goldenPath = "testdata/features_golden.json"

// goldenRow pins the feature vector of one (operator, schedule index) point:
// the bit pattern of each of the FeatureLen features, featurized with the
// point's analytic estimate. Err holds the compile/estimate error text of
// points the pipeline rejects (they are not featurized).
type goldenRow struct {
	Op       string   `json:"op"`
	Index    int      `json:"index"`
	Features []string `json:"features,omitempty"`
	Err      string   `json:"err,omitempty"`
}

// TestFeaturesGolden is the characterisation of the featurizer: all
// FeatureLen features bit for bit over the (operator, schedule point) list
// the estimate and run goldens pin.
func TestFeaturesGolden(t *testing.T) {
	model, err := costmodel.FitGemmModel()
	if err != nil {
		t.Fatal(err)
	}
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, pt := range points {
		row := goldenRow{Op: pt.Op.Name(), Index: pt.Index}
		prog, err := pt.Op.Compile(pt.Strategy)
		if err == nil {
			var est costmodel.Estimate
			if est, err = costmodel.EstimateProgram(model, prog); err == nil {
				for _, f := range Features(pt.Op.Seed(), pt.Strategy, prog, est) {
					row.Features = append(row.Features, fmt.Sprintf("%016x", math.Float64bits(f)))
				}
			}
		}
		if err != nil {
			row.Err = err.Error()
		}
		rows = append(rows, row)
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
		if !reflect.DeepEqual(rows[i], want[i]) {
			t.Errorf("row %d differs:\n got %+v\nwant %+v", i, rows[i], want[i])
		}
	}
}

// TestFeaturesAllocBudget: a steady-state Features call allocates its vector
// and nothing else, at every golden point — whatever the operator's axis
// roles, and without walking the program again.
func TestFeaturesAllocBudget(t *testing.T) {
	model, err := costmodel.FitGemmModel()
	if err != nil {
		t.Fatal(err)
	}
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		prog, err := pt.Op.Compile(pt.Strategy)
		if err != nil {
			continue
		}
		est, err := costmodel.EstimateProgram(model, prog)
		if err != nil {
			continue
		}
		seed := pt.Op.Seed()
		if a := testing.AllocsPerRun(20, func() { Features(seed, pt.Strategy, prog, est) }); a != 1 {
			t.Fatalf("%s[%d]: Features makes %v allocations, want 1 (its vector)", pt.Op.Name(), pt.Index, a)
		}
	}
}
