package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"swatop/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the Chrome-trace golden file")

// goldenLog is a small hand-built timeline exercising every export path:
// all four machine channels, an unknown kind (extra track), a zero-duration
// instant, an unlabeled event, and span Args.
func goldenLog() *trace.Log {
	l := &trace.Log{}
	l.Add(trace.KindGemm, "128x128x128", 0, 0.0012)
	l.Add(trace.KindDMA, "get in", 0.0002, 0.0006)
	l.Add(trace.KindTransform, "wino input", 0.0013, 0.0001)
	l.Add(trace.KindWait, "rep", 0.0014, 0.0003)
	l.Add(trace.Kind("experiment"), "table3", 0, 0.0017)
	l.Add(trace.KindDMA, "", 0.0017, 0) // instant, unlabeled
	l.Tag(0, map[string]string{"op": "conv1_1", "layer": "0"})
	return l
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenLog().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceIsValidAndComplete parses the export back as generic JSON
// and checks the structural invariants any trace viewer relies on.
func TestChromeTraceIsValidAndComplete(t *testing.T) {
	l := goldenLog()
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var spans, metas int
	threadNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.TS < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
			if ev.Name == "" {
				t.Fatalf("span without a name: %+v", ev)
			}
		case "M":
			metas++
			if ev.Name == "thread_name" {
				threadNames[ev.Args["name"].(string)] = true
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != len(l.Events) {
		t.Fatalf("%d spans exported, want %d", spans, len(l.Events))
	}
	for _, name := range []string{"gemm", "dma", "transform", "wait", "experiment"} {
		if !threadNames[name] {
			t.Fatalf("missing thread_name for %q (have %v)", name, threadNames)
		}
	}
	// A gemm span's timestamps are microseconds.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "gemm" {
			if ev.TS != 0 || ev.Dur != 1200 {
				t.Fatalf("gemm span ts=%g dur=%g, want 0/1200 µs", ev.TS, ev.Dur)
			}
			if ev.Args["op"] != "conv1_1" || ev.Args["layer"] != "0" {
				t.Fatalf("span args lost: %+v", ev.Args)
			}
		}
	}
}

// TestWriteChromeTraceFleetGolden pins the multi-group export: each core
// group becomes its own numbered process, spans keep their Args, and the
// output is deterministic byte-for-byte.
func TestWriteChromeTraceFleetGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fleetLog().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_fleet_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fleet chrome trace drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Structural invariants a viewer relies on: valid JSON, one process per
	// group with distinct numbered names, spans on the right pids.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet export is not valid JSON: %v", err)
	}
	procNames := map[int]string{}
	spanPIDs := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procNames[ev.PID] = ev.Args["name"].(string)
		case ev.Ph == "X":
			spanPIDs[ev.PID]++
			if ev.Cat == "gemm" && ev.Args["op"] != "conv1" {
				t.Fatalf("fleet span lost Args: %+v", ev)
			}
		}
	}
	if procNames[1] == procNames[2] || procNames[1] == "" || procNames[2] == "" {
		t.Fatalf("group processes not distinct: %v", procNames)
	}
	if spanPIDs[1] != 3 || spanPIDs[2] != 2 {
		t.Fatalf("spans per pid = %v, want 3 on pid 1, 2 on pid 2", spanPIDs)
	}
}

func TestRoofline(t *testing.T) {
	l := &trace.Log{}
	l.Add(trace.KindGemm, "", 0, 4)
	l.Add(trace.KindDMA, "", 2, 4) // 2 s hidden, 2 s exposed
	r := l.Roofline(6e9, 12e9, 1.0, 4e9)
	if r.Seconds != 6 {
		t.Fatalf("seconds = %g", r.Seconds)
	}
	if r.AchievedGFLOPS != 1 || r.ComputeUtilization() != 1 {
		t.Fatalf("gflops = %g util %g", r.AchievedGFLOPS, r.ComputeUtilization())
	}
	if r.DMAGBps != 2 || r.DMAUtilization() != 0.5 {
		t.Fatalf("dma %g GB/s util %g", r.DMAGBps, r.DMAUtilization())
	}
	if r.HiddenDMAFraction() != 0.5 {
		t.Fatalf("hidden fraction = %g, want 0.5", r.HiddenDMAFraction())
	}
	s := r.String()
	for _, want := range []string{"roofline", "compute", "dma", "hidden behind compute"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("roofline summary missing %q:\n%s", want, s)
		}
	}
	empty := (&trace.Log{}).Roofline(0, 0, 1, 1)
	if empty.AchievedGFLOPS != 0 || empty.ComputeUtilization() != 0 || empty.HiddenDMAFraction() != 0 {
		t.Fatal("empty roofline must be all zeros")
	}
}
