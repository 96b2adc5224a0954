package infer

import (
	"context"
	"math"
	"strings"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/ir"
	"swatop/internal/sw26010"
	"swatop/internal/trace"
)

// TestEngineRunsWhatConvBuilds: after a warm timed run of a net that uses
// Winograd, each operator node's chosen strategy, compiled by the operator
// conv.NewOp (or gemm.NewOp) builds and run in topological order on one
// shared machine, takes the seconds the engine reported, to the 1e-9
// relative rounding a shared clock allows — so the engine runs no program
// form the constructors do not build.
func TestEngineRunsWhatConvBuilds(t *testing.T) {
	ctx := context.Background()
	g := tinyChain(t, 2)
	e, lib := newEngine(t), cache.NewLibrary()
	opts := Options{Workers: 2, Library: lib, SkipBaseline: true}
	if _, err := e.Run(ctx, g, opts); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]Layer{}
	for _, l := range res.Layers {
		layers[l.Name] = l
	}
	m := sw26010.NewMachine()
	winograd := 0
	for _, n := range g.Topo() {
		l := layers[n.Name]
		if l.Strategy == "" {
			continue
		}
		var op dsl.Operator
		prefix := ""
		if n.Kind == graph.Conv {
			method, _, _ := strings.Cut(l.Strategy, " ")
			if method == conv.Winograd {
				winograd++
			}
			op, err = conv.NewOp(method, n.Conv)
			prefix = method + " "
		} else {
			op, err = gemm.NewOp(n.Gemm)
		}
		if err != nil {
			t.Fatal(err)
		}
		entry, ok := lib.Get(op.Name())
		if !ok || prefix+entry.Strategy().String() != l.Strategy {
			t.Fatalf("%s: the library's %s entry is not the strategy the engine ran, %q", n.Name, op.Name(), l.Strategy)
		}
		prog, err := op.Compile(entry.Strategy())
		if err != nil {
			t.Fatal(err)
		}
		secs := runOn(t, m, prog)
		if math.Abs(secs-l.Seconds) > 1e-9*l.Seconds {
			t.Fatalf("%s: %s compiled by its constructor takes %g s, the engine's run %g s", n.Name, l.Strategy, secs, l.Seconds)
		}
	}
	if winograd == 0 {
		t.Fatal("the net runs no Winograd layer")
	}
}

// runOn runs prog timed-only on machine m, as the engine does, and frees
// its scratch pad for the next kernel.
func runOn(t *testing.T, m *sw26010.Machine, prog *ir.Program) float64 {
	t.Helper()
	binds, err := exec.BindVirtual(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(prog, binds, exec.Options{FastLoops: true, Machine: m, Trace: &trace.Log{}})
	if err != nil {
		t.Fatal(err)
	}
	m.ResetSPM()
	return res.Seconds
}

// TestNetworkTransformsNoFilters: a timed network run simulates no filter
// transform and moves no V or M — its Winograd layers are the fused nest,
// which transforms in SPM from phase I on — and a functional run of the
// same net, its U computed on the host, still matches the reference
// convolution of the original weights at every operator node.
func TestNetworkTransformsNoFilters(t *testing.T) {
	ctx := context.Background()
	g := tinyChain(t, 2)
	e, lib := newEngine(t), cache.NewLibrary()
	timed, err := e.Run(ctx, g, Options{Workers: 2, Library: lib, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	inputs := 0
	for _, ev := range timed.Timeline.Events {
		if _, tensor, _ := strings.Cut(ev.Label, " "); ev.Kind == trace.KindDMA && (tensor == "V" || tensor == "M") {
			t.Fatalf("a timed network run moves %s at %g s", ev.Label, ev.Start)
		}
		switch ev.Label {
		case ir.WinoFilterTile.String():
			t.Fatalf("a timed network run simulates a filter transform at %g s", ev.Start)
		case ir.WinoInputSlab.String():
			inputs++
		}
	}
	if inputs == 0 {
		t.Fatal("the timed run transforms no Winograd input: the net runs no Winograd layer")
	}

	functional, err := e.Run(ctx, g, Options{Library: lib, SkipBaseline: true, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range functional.Layers {
		if l.Strategy != "" && !l.Checked {
			t.Fatalf("functional layer %s (%s) was not checked against the reference", l.Name, l.Strategy)
		}
	}
}
