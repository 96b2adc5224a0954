package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"swatop/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/experiments_golden.json from the current code")

const goldenPath = "testdata/experiments_golden.json"

// goldenExperiment is how TestExperimentsGolden reads one registry entry:
// the structured rows it reports and the fields of a row that are pinned.
type goldenExperiment struct {
	id     string
	rows   func(r *Runner) (any, error)
	fields []string
}

var layerFields = []string{"Net", "Layer", "Batch", "Shape", "SwATOP", "Manual", "ManualNA",
	"Speedup", "Eff", "ChipTFlops", "SpaceSize", "Measured", "SpacePoints"}

func goldenExperiments() []goldenExperiment {
	batches := workloads.Batches()
	return []goldenExperiment{
		{"fig5", func(r *Runner) (any, error) { return r.Fig5(batches) }, layerFields},
		{"fig6", func(r *Runner) (any, error) { return r.Fig6(batches) }, layerFields},
		{"fig7", func(r *Runner) (any, error) { return r.Fig7(batches) }, layerFields},
		{"table1", func(r *Runner) (any, error) { return r.Table1() },
			[]string{"Method", "Batch", "Faster", "Slower", "AvgFasterPct", "AvgSlowerPct", "FasterInf"}},
		{"fig8", func(r *Runner) (any, error) { return r.Fig8() },
			[]string{"Method", "Batch", "AvgTFlops", "AvgEff", "MinEff", "MaxEff"}},
		{"table2", func(r *Runner) (any, error) { return r.Table2() },
			[]string{"Aligned", "Faster", "AvgFasterPct", "Slower", "AvgSlowerPct"}},
		// WallBlack and WallSwATOP are host wall seconds: not reproducible.
		{"table3", func(r *Runner) (any, error) { return r.Table3() },
			[]string{"Net", "Layers", "SpaceTotal", "SpaceAvg", "BlackBoxSec", "BlackBoxAvg",
				"SwATOPSec", "SwATOPAvg", "SpeedupX"}},
		{"fig9", func(r *Runner) (any, error) { return r.Fig9() }, []string{"Shape", "Batch", "Ratio"}},
		{"fig10", func(r *Runner) (any, error) { return r.Fig10() },
			[]string{"Shape", "NoPrefetch", "Prefetch", "ImprovementPct"}},
		{"fig11", func(r *Runner) (any, error) { return r.Fig11() },
			[]string{"Params", "IdealSec", "LightPct", "TraditionPct"}},
	}
}

// goldenLines renders each row of a row slice as one line of name=value
// pairs, floats as their IEEE-754 bit patterns.
func goldenLines(t *testing.T, rows any, fields []string) []string {
	t.Helper()
	v := reflect.ValueOf(rows)
	out := make([]string, v.Len())
	for i := range out {
		parts := make([]string, len(fields))
		for j, name := range fields {
			f := v.Index(i).FieldByName(name)
			if !f.IsValid() {
				t.Fatalf("%s has no field %s", v.Index(i).Type(), name)
			}
			val := fmt.Sprintf("%+v", f.Interface())
			if f.Kind() == reflect.Float64 {
				val = fmt.Sprintf("%016x", math.Float64bits(f.Float()))
			}
			parts[j] = name + "=" + val
		}
		out[i] = strings.Join(parts, " ")
	}
	return out
}

// TestExperimentsGolden pins every row of every registry experiment in quick
// mode (swbench's default stratified subsets), bit for bit, against
// testdata/experiments_golden.json. The substrate entry is pinned by its
// rendered cells. -update-golden rewrites the file; only do that in a commit
// that changes nothing else.
func TestExperimentsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the quick suite takes minutes under -race")
	}
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	r.Quick = true
	r.Options.Workers = 4

	got := map[string][]string{}
	sub, err := runSubstrate(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sub.Rows {
		got["substrate"] = append(got["substrate"], strings.Join(row, " | "))
	}
	for _, e := range goldenExperiments() {
		rows, err := e.rows(r)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		got[e.id] = goldenLines(t, rows, e.fields)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
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
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		g, w := got[e.ID], want[e.ID]
		if len(w) == 0 {
			t.Errorf("%s: golden has no rows", e.ID)
		}
		if len(g) != len(w) {
			t.Errorf("%s: %d rows, golden has %d", e.ID, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s row %d differs:\n got %s\nwant %s", e.ID, i, g[i], w[i])
			}
		}
	}
}
