package exec

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/goldenpoints"
	"swatop/internal/ir"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
)

// functionalMaxFloats bounds the operand floats of the golden programs that
// also run functionally: the VGG-sized implicit points take seconds each
// with real data.
const functionalMaxFloats = 1 << 19

// TestMachineReuseCannotBeSeen: a program P run on a machine that first ran
// another program Q and was then Reset reads exactly as P on a fresh
// machine. Over the golden points, Q being the previous point's: timed with
// and without FastLoops, the pinned row bit for bit (Result.Seconds, every
// counter, the error). On each operator's first point that is small enough,
// Q the previous such point: functionally, with the result and every output
// tensor bit for bit, although Q left its own data in the storage P's
// buffers reuse.
func TestMachineReuseCannotBeSeen(t *testing.T) {
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, len(points))
	m := sw26010.NewMachine()
	var q *ir.Program // the last program run functionally, of operator qOp
	qOp := ""
	functional := 0
	for i, pt := range points {
		p, err := pt.Op.Compile(pt.Strategy)
		if err != nil {
			continue
		}
		m.Reset()
		exact := goldenRunOf(p, Options{Machine: m})
		m.Reset()
		fast := goldenRunOf(p, Options{FastLoops: true, Machine: m})
		if !reflect.DeepEqual(exact, want[i].Exact) || !reflect.DeepEqual(fast, want[i].Fast) {
			got, _ := json.Marshal([]*goldenRun{exact, fast})
			exp, _ := json.Marshal([]*goldenRun{want[i].Exact, want[i].Fast})
			t.Fatalf("%s point %d on a reused machine:\n got %s\nwant %s", pt.Op.Name(), pt.Index, got, exp)
		}
		if pt.Op.Name() == qOp || operandFloats(p) > functionalMaxFloats {
			continue
		}
		fresh := bindData(t, p)
		wantRes, wantErr := Run(p, fresh, Options{Functional: true})
		if q != nil {
			m.Reset()
			if _, err := Run(q, bindData(t, q), Options{Functional: true, Machine: m}); err != nil {
				t.Fatal(err)
			}
		}
		m.Reset()
		reused := bindData(t, p)
		res, err := Run(p, reused, Options{Functional: true, Machine: m})
		if (err == nil) != (wantErr == nil) || math.Float64bits(res.Seconds) != math.Float64bits(wantRes.Seconds) || res.Counters != wantRes.Counters {
			t.Fatalf("%s point %d functional on a reused machine: %g s %+v (%v), fresh %g s %+v (%v)",
				pt.Op.Name(), pt.Index, res.Seconds, res.Counters, err, wantRes.Seconds, wantRes.Counters, wantErr)
		}
		for _, d := range p.Tensors {
			g, w := reused[d.Name], fresh[d.Name]
			if d.Output && !slices.EqualFunc(g.Data, w.Data, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Fatalf("%s point %d: output %s differs on a reused machine", pt.Op.Name(), pt.Index, d.Name)
			}
		}
		q, qOp = p, pt.Op.Name()
		functional++
	}
	if functional < 4 {
		t.Fatalf("%d golden points ran functionally, want one per operator but the VGG-sized one", functional)
	}
}

// operandFloats is the size of p's bound (non-scratch) tensors.
func operandFloats(p *ir.Program) int {
	n := 0
	for _, d := range p.Tensors {
		if !d.Scratch {
			size := 1
			for _, x := range d.Dims {
				size *= x
			}
			n += size
		}
	}
	return n
}

func bindData(t *testing.T, p *ir.Program) map[string]*tensor.Tensor {
	t.Helper()
	b, err := conv.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
