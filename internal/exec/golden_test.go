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

func goldenRunOf(p *ir.Program, fast bool) *goldenRun {
	res, err := RunVirtual(p, Options{FastLoops: fast})
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

// noteRequestArms walks the program's first iteration (every loop at 0) and
// records which arms of the executor's request arithmetic its transfers
// reach: the 64-way split of a pattern with fewer blocks than CPEs, the
// unsplit arm, and regions that flatten into more than one descriptor.
func noteRequestArms(t *testing.T, p *ir.Program, covered map[string]bool) {
	t.Helper()
	tensors := map[string]*tensor.Tensor{}
	for _, d := range p.Tensors {
		x, err := tensor.NewVirtual(d.Name, d.Dims, d.Layout)
		if err != nil {
			t.Fatal(err)
		}
		tensors[d.Name] = x
	}
	env := ir.Env{}
	move := func(mv *ir.RegionMove) {
		var r tensor.Region
		for d := range mv.Start {
			r.Start = append(r.Start, int(mv.Start[d].Eval(env)))
			r.Extent = append(r.Extent, int(mv.Extent[d].Eval(env)))
		}
		descs, err := r.FlattenMulti(tensors[mv.Tensor])
		if err != nil || len(descs) == 0 {
			return // the run's own error is pinned in the row
		}
		total := 0
		for _, d := range descs {
			total += d.Count
		}
		if total < sw26010.NumCPE && descs[0].Block*4 > sw26010.TransactionBytes {
			covered["request=split"] = true
		} else {
			covered["request=unsplit"] = true
		}
		if len(descs) > 1 {
			covered["region=multi-descriptor"] = true
		}
	}
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *ir.Assign:
				env[x.Var] = x.Val.Eval(env)
			case *ir.If:
				if x.Cond.Eval(env) {
					walk(x.Then)
				} else {
					walk(x.Else)
				}
			case *ir.For:
				env[x.Iter] = 0
				walk(x.Body)
			case *ir.RegionMove:
				move(x)
			case *ir.DMAOp:
				move(&x.Move)
			}
		}
	}
	walk(p.Body)
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
		row.Exact, row.Fast = goldenRunOf(prog, false), goldenRunOf(prog, true)
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
			got, _ := json.Marshal(rows[i])
			exp, _ := json.Marshal(want[i])
			t.Errorf("row %d differs:\n got %s\nwant %s", i, got, exp)
		}
	}
}
