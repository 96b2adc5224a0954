package exec

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"swatop/internal/goldenpoints"
	"swatop/internal/ir"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/run_golden.json from the current code")

const goldenPath = "testdata/run_golden.json"

// goldenRun pins one timed run: the bit pattern of Result.Seconds and every
// sw26010.Counters field by name (integers in decimal, floats as bit
// patterns), or the error text of a run the executor rejects.
type goldenRun struct {
	Seconds  string            `json:"seconds,omitempty"`
	Counters map[string]string `json:"counters,omitempty"`
	Err      string            `json:"err,omitempty"`
}

// goldenRow pins one (operator, schedule index) point of costmodel's golden
// list, run with FastLoops off (Exact) and on (Fast). CompileErr holds the
// error text of points that do not compile (they are not run).
type goldenRow struct {
	Op         string     `json:"op"`
	Index      int        `json:"index"`
	CompileErr string     `json:"compile_err,omitempty"`
	Exact      *goldenRun `json:"exact,omitempty"`
	Fast       *goldenRun `json:"fast,omitempty"`
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func goldenRunOf(p *ir.Program, opt Options) *goldenRun {
	res, err := RunVirtual(p, opt)
	if err != nil {
		return &goldenRun{Err: err.Error()}
	}
	run := &goldenRun{Seconds: bits(res.Seconds), Counters: map[string]string{}}
	v := reflect.ValueOf(res.Counters)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			run.Counters[name] = bits(f.Float())
		default:
			run.Counters[name] = fmt.Sprint(f.Int())
		}
	}
	return run
}

// requestArms walks the program's first iteration (every loop at 0) and
// records which arms of the executor's request arithmetic its transfers
// reach: the 64-way split of a pattern with fewer blocks than CPEs, the
// unsplit arm, and regions that flatten into more than one descriptor.
type requestArms struct {
	ir.FirstPass
	tensors []*tensor.Tensor
	covered map[string]bool
}

func (r requestArms) Move(_ *ir.RegionMove, mv *ir.Op) error {
	descs, err := tensor.Region{Start: mv.Start(), Extent: mv.Extent()}.FlattenMulti(r.tensors[mv.A])
	if err != nil || len(descs) == 0 {
		return nil // the run's own error is pinned in the row
	}
	total := 0
	for _, d := range descs {
		total += d.Count
	}
	if total < sw26010.NumCPE && descs[0].Block*4 > sw26010.TransactionBytes {
		r.covered["request=split"] = true
	} else {
		r.covered["request=unsplit"] = true
	}
	if len(descs) > 1 {
		r.covered["region=multi-descriptor"] = true
	}
	return nil
}

func noteRequestArms(t *testing.T, p *ir.Program, covered map[string]bool) {
	t.Helper()
	r := requestArms{covered: covered}
	for _, d := range p.Tensors {
		x, err := tensor.NewVirtual(d.Name, d.Dims, d.Layout)
		if err != nil {
			t.Fatal(err)
		}
		r.tensors = append(r.tensors, x)
	}
	if err := ir.Bind(p).Run(r); err != nil {
		t.Fatal(err)
	}
}

// TestRunGolden is the characterisation of timed execution: simulated
// seconds and every machine counter, bit for bit, with and without
// steady-state fast forward, over the (operator, schedule point) list
// costmodel's golden pins.
func TestRunGolden(t *testing.T) {
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	covered := map[string]bool{}
	for _, pt := range points {
		row := goldenRow{Op: pt.Op.Name(), Index: pt.Index}
		prog, err := pt.Op.Compile(pt.Strategy)
		if err != nil {
			row.CompileErr = err.Error()
			rows = append(rows, row)
			continue
		}
		noteRequestArms(t, prog, covered)
		row.Exact, row.Fast = goldenRunOf(prog, Options{}), goldenRunOf(prog, Options{FastLoops: true})
		for _, run := range []*goldenRun{row.Exact, row.Fast} {
			if run.Err != "" {
				covered["run=rejected"] = true
			} else {
				covered["run=ok"] = true
			}
		}
		rows = append(rows, row)
	}
	for _, want := range []string{"request=split", "request=unsplit", "region=multi-descriptor", "run=ok"} {
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
	want := readGolden(t, len(rows))
	for i := range rows {
		if !reflect.DeepEqual(rows[i], want[i]) {
			got, _ := json.Marshal(rows[i])
			exp, _ := json.Marshal(want[i])
			t.Errorf("row %d differs:\n got %s\nwant %s", i, got, exp)
		}
	}
}

// readGolden loads the pinned rows, which must number n.
func readGolden(t *testing.T, n int) []goldenRow {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("golden has %d rows, code produced %d", len(rows), n)
	}
	return rows
}
