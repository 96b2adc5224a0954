package infer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/graph"
	"swatop/internal/metrics"
	"swatop/internal/reqtrace"
	"swatop/internal/trace"
	"swatop/internal/workloads"
)

// convOnlyBuilder is a two-conv chain with no fully-connected tail: the
// network shape that takes the pure data-parallel path.
func convOnlyBuilder(batch int) (*graph.Graph, error) {
	return graph.Chain("convnet", batch,
		[]workloads.ConvLayer{
			{Net: "convnet", Name: "c1", Ni: 3, No: 16, R: 8, K: 3},
			{Net: "convnet", Name: "c2", Ni: 16, No: 16, R: 8, K: 3},
		}, nil)
}

// fpHash hashes one fingerprint section. Floats go in as their IEEE bits,
// so two runs agree only when they are bit-identical.
type fpHash struct{ h hash.Hash }

func newFP() fpHash { return fpHash{sha256.New()} }

func (f fpHash) f64(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(f.h, "%016x;", math.Float64bits(v))
	}
}
func (f fpHash) str(format string, args ...any) { fmt.Fprintf(f.h, format+";", args...) }
func (f fpHash) sum() string                    { return fmt.Sprintf("%x", f.h.Sum(nil)[:12]) }

func (f fpHash) chrome(t *testing.T, l *trace.Log) {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	f.h.Write(buf.Bytes())
}

func sortedArgs(args map[string]string) string {
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, args[k])
	}
	return b.String()
}

// fingerprint reduces everything observable about one run — every Result
// field, the raw timeline, the Chrome-trace bytes, the functional output,
// the metrics snapshot and the span list — to one "section hash" line per
// aspect, so a mismatch names what moved.
func fingerprint(t *testing.T, res *Result, reg *metrics.Registry, spans *reqtrace.Spans) []string {
	t.Helper()
	var lines []string
	section := func(name string, fill func(fpHash)) {
		f := newFP()
		fill(f)
		lines = append(lines, name+" "+f.sum())
	}
	section("result", func(f fpHash) {
		f.str("%s %d %s %d", res.Net, res.Batch, res.Mode, res.FLOPs)
		f.f64(res.Seconds, res.BaselineSeconds, res.Speedup, res.CommSeconds)
		f.str("%d %d %d", res.TunedOps, res.CachedOps, res.DegradedOps)
		f.str("%+v", res.Counters)
		f.f64(res.Counters.ComputeSeconds, res.Counters.StallSeconds)
	})
	section("layers", func(f fpHash) {
		for _, l := range res.Layers {
			f.str("%s %s %d %v %v %q %d %v", l.Name, l.Kind, l.FLOPs, l.Cached, l.Degraded,
				l.Strategy, l.SpaceSize, l.Checked)
			f.f64(l.Start, l.Seconds, l.BaselineSeconds, l.MaxAbsErr)
		}
	})
	section("groups", func(f fpHash) {
		f.str("%d", len(res.Groups))
		for _, g := range res.Groups {
			f.str("%d %d %+v", g.Group, g.Batch, g.Counters)
			f.f64(g.Seconds, g.Counters.ComputeSeconds, g.Counters.StallSeconds)
		}
	})
	section("pipeline", func(f fpHash) {
		if res.Pipeline == nil {
			return
		}
		f.str("%d", res.Pipeline.MicroBatches)
		f.f64(res.Pipeline.BubbleFraction)
		for _, s := range res.Pipeline.Stages {
			f.str("%d %v", s.Group, s.Nodes)
			f.f64(s.Seconds, s.TransferSeconds)
		}
	})
	section("plan", func(f fpHash) {
		slots := make(map[string]string, len(res.Plan.Slot))
		for k, v := range res.Plan.Slot {
			slots[k] = fmt.Sprint(v)
		}
		f.str("%s %v %d %d %d %d", sortedArgs(slots), res.Plan.ArenaElems, res.Plan.DedicatedBytes,
			res.Plan.IOBytes, res.Plan.ParamBytes, res.Plan.NaiveBytes)
	})
	section("timeline", func(f fpHash) {
		for _, ev := range res.Timeline.Events {
			f.str("%s %q %d %s", ev.Kind, ev.Label, ev.Group, sortedArgs(ev.Args))
			f.f64(ev.Start, ev.Dur)
		}
	})
	section("chrome", func(f fpHash) { f.chrome(t, res.Timeline) })
	section("layer-chrome", func(f fpHash) {
		for _, l := range res.Layers {
			f.chrome(t, l.Trace)
		}
	})
	section("output", func(f fpHash) {
		if res.Output == nil {
			return
		}
		f.str("%s %v", res.Output.Name, res.Output.Dims)
		for i := 0; i < res.Output.Len(); i++ {
			f.str("%08x", math.Float32bits(atFlat(res.Output, i)))
		}
	})
	section("metrics", func(f fpHash) {
		if err := reg.Snapshot().WriteJSON(f.h); err != nil {
			t.Fatal(err)
		}
	})
	section("spans", func(f fpHash) {
		// Snapshot is wall-time ordered; sort by identity instead.
		var ss []string
		for _, s := range spans.Snapshot() {
			ss = append(ss, fmt.Sprintf("%s|%s|%d|%s", s.Phase, s.Name, s.Group, sortedArgs(s.Args)))
		}
		sort.Strings(ss)
		f.str("%s", strings.Join(ss, "\n"))
	})
	return lines
}

// TestFleetFingerprint is the characterisation test of the execution
// paths: 13 warm, fully cached configurations covering the single machine,
// hybrid and pure data parallelism (with empty shards, idle groups and
// functional data) and pipelining, each run serially and concurrently, must
// reproduce testdata/fleet_fingerprints.txt bit for bit. The golden file
// records the behaviour before the four paths were folded into one task
// runner; on a deliberate observable change, replace the lines the failure
// prints.
func TestFleetFingerprint(t *testing.T) {
	raw, err := os.ReadFile("testdata/fleet_fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		golden[line[:i]] = line[i+1:]
	}

	e := newEngine(t)
	ctx := context.Background()
	libs := map[string]*cache.Library{"tiny": cache.NewLibrary(), "convnet": cache.NewLibrary()}
	seen := map[string]bool{}
	cfg := func(name string, build func(int) (*graph.Graph, error), batch int, mut func(*Options)) {
		run := func(serial, observe bool) []string {
			g, err := build(batch)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Workers: 2, Library: libs[g.Name], SkipBaseline: true, Builder: build, serialFleet: serial}
			mut(&opts)
			if !observe {
				if _, err := e.Run(ctx, g, opts); err != nil {
					t.Fatalf("%s: warm-up: %v", name, err)
				}
				return nil
			}
			opts.Metrics = metrics.NewRegistry()
			opts.Spans = &reqtrace.Spans{}
			res, err := e.Run(ctx, g, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return fingerprint(t, res, opts.Metrics, opts.Spans)
		}
		run(true, false) // warm the library: every compared run is fully cached
		for _, serial := range []bool{true, false} {
			for _, line := range run(serial, true) {
				i := strings.LastIndexByte(line, ' ')
				k := name + "/" + line[:i]
				seen[k] = true
				if golden[k] != line[i+1:] {
					t.Errorf("serial=%v: fingerprint moved (golden %q):\n%s %s", serial, golden[k], k, line[i+1:])
				}
			}
		}
	}

	fleet := func(groups int, functional, pipeline bool) func(*Options) {
		return func(o *Options) { o.Groups, o.Functional, o.Pipeline = groups, functional, pipeline }
	}
	cfg("single-b4", tinyBuilder, 4, func(*Options) {})
	cfg("single-b2-functional", tinyBuilder, 2, func(o *Options) { o.Functional = true })
	cfg("single-b2-baseline", tinyBuilder, 2, func(o *Options) { o.SkipBaseline = false })
	cfg("hybrid-b8-g4", tinyBuilder, 8, fleet(4, false, false))
	cfg("hybrid-b7-g3", tinyBuilder, 7, fleet(3, false, false))
	cfg("hybrid-b2-g4-empty", tinyBuilder, 2, fleet(4, false, false))
	cfg("hybrid-b4-g2-functional", tinyBuilder, 4, fleet(2, true, false))
	cfg("hybrid-b2-g4-functional-empty", tinyBuilder, 2, fleet(4, true, false))
	cfg("dp-b8-g4", convOnlyBuilder, 8, fleet(4, false, false))
	cfg("dp-b2-g3-idle", convOnlyBuilder, 2, fleet(3, false, false))
	cfg("dp-b5-g2-functional", convOnlyBuilder, 5, fleet(2, true, false))
	cfg("pipeline-b4-g2", tinyBuilder, 4, fleet(2, false, true))
	cfg("pipeline-b3-g4", tinyBuilder, 3, fleet(4, false, true))
	if len(seen) != len(golden) {
		t.Errorf("golden file has %d entries, the runs produced %d", len(golden), len(seen))
	}
}
