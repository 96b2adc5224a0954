package bench

import (
	"strings"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Schema: SchemaVersion,
		Name:   "base",
		Workloads: []Workload{
			{
				Name:           "gemm-2048",
				MachineSeconds: 0.010,
				ExecSeconds:    0.010,
				Layers: []LayerCost{
					{Name: "gemm-2048", Kind: "gemm", Seconds: 0.010, Strategy: "tile 64x64"},
				},
			},
			{
				Name:           "vgg16-b8-g4",
				MachineSeconds: 0.100,
				ExecSeconds:    0.090,
				CommSeconds:    0.010,
				Layers: []LayerCost{
					{Name: "conv1_1", Kind: "conv", Seconds: 0.020, Strategy: "s1"},
					{Name: "conv2_1", Kind: "conv", Seconds: 0.030, Strategy: "s2"},
					{Name: "fc6", Kind: "fc", Seconds: 0.040, Strategy: "s3"},
				},
			},
			{
				Name:           "vgg16-serve-b8",
				MachineSeconds: 0.050,
				ExecSeconds:    0.050,
			},
		},
	}
}

// TestAttributeIdenticalZero is the obs-check gate: a snapshot diffed
// against itself attributes to zero everywhere.
func TestAttributeIdenticalZero(t *testing.T) {
	a := Attribute(sampleSnapshot(), sampleSnapshot())
	if !a.Zero() {
		t.Fatalf("identical snapshots not zero:\n%s", a)
	}
	if top := a.Top(); top != nil {
		t.Fatalf("Top on identical snapshots = %+v, want nil", top)
	}
	if !strings.Contains(a.String(), "no differences") {
		t.Fatalf("report should say no differences:\n%s", a)
	}
}

// TestAttributeSlowedConv is the acceptance case: one conv layer slowed
// 3x in the new snapshot; the attribution must rank that workload worst,
// name that conv as the top layer, and name exec as the dominant phase.
func TestAttributeSlowedConv(t *testing.T) {
	old := sampleSnapshot()
	cur := sampleSnapshot()
	cur.Name = "cur"
	w := cur.Lookup("vgg16-b8-g4")
	w.Layers[1].Seconds = 0.090 // conv2_1: 0.030 -> 0.090
	slowdown := 0.060
	w.MachineSeconds += slowdown
	w.ExecSeconds += slowdown

	a := Attribute(old, cur)
	if a.Zero() {
		t.Fatal("slowed snapshot attributed to zero")
	}
	top := a.Top()
	if top == nil || top.Name != "vgg16-b8-g4" {
		t.Fatalf("top workload = %+v, want vgg16-b8-g4", top)
	}
	if got := top.TopPhase(); got != "exec" {
		t.Fatalf("dominant phase = %q, want exec", got)
	}
	layer := top.TopLayer()
	if layer == nil || layer.Name != "conv2_1" {
		t.Fatalf("top layer = %+v, want conv2_1", layer)
	}
	if layer.Kind != "conv" {
		t.Fatalf("top layer kind = %q, want conv", layer.Kind)
	}
	report := a.String()
	for _, want := range []string{"vgg16-b8-g4", "conv2_1", "dominant phase: exec"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestAttributeCommPhase: a comm-only slowdown names comm, not exec.
func TestAttributeCommPhase(t *testing.T) {
	old := sampleSnapshot()
	cur := sampleSnapshot()
	w := cur.Lookup("vgg16-b8-g4")
	w.CommSeconds += 0.020
	w.MachineSeconds += 0.020

	a := Attribute(old, cur)
	top := a.Top()
	if top == nil || top.TopPhase() != "comm" {
		t.Fatalf("dominant phase = %v, want comm", top)
	}
}

// TestAttributeScheduleChange: same seconds, different chosen schedule —
// not zero, and the report names both strategies.
func TestAttributeScheduleChange(t *testing.T) {
	old := sampleSnapshot()
	cur := sampleSnapshot()
	cur.Lookup("gemm-2048").Layers[0].Strategy = "tile 128x32"

	a := Attribute(old, cur)
	if a.Zero() {
		t.Fatal("schedule change attributed to zero")
	}
	report := a.String()
	if !strings.Contains(report, "tile 64x64") || !strings.Contains(report, "tile 128x32") {
		t.Fatalf("report missing schedule change:\n%s", report)
	}
}

// TestAttributeMissingWorkload: a workload dropped from the new snapshot
// is surfaced, as is one only the new snapshot has.
func TestAttributeMissingWorkload(t *testing.T) {
	old := sampleSnapshot()
	cur := sampleSnapshot()
	cur.Workloads = cur.Workloads[:2] // drop vgg16-serve-b8
	cur.Workloads = append(cur.Workloads, Workload{Name: "brand-new", MachineSeconds: 0.001})

	a := Attribute(old, cur)
	if a.Zero() {
		t.Fatal("missing workload attributed to zero")
	}
	report := a.String()
	if !strings.Contains(report, "missing from new snapshot") {
		t.Fatalf("report missing dropped-workload line:\n%s", report)
	}
	if !strings.Contains(report, "new workload") {
		t.Fatalf("report missing added-workload line:\n%s", report)
	}
}

// TestAttributeLegacyExecFallback: old snapshots without ExecSeconds
// still attribute — exec falls back to total minus comm.
func TestAttributeLegacyExecFallback(t *testing.T) {
	old := &Snapshot{Schema: SchemaVersion, Workloads: []Workload{
		{Name: "w", MachineSeconds: 0.10, CommSeconds: 0.01},
	}}
	cur := &Snapshot{Schema: SchemaVersion, Workloads: []Workload{
		{Name: "w", MachineSeconds: 0.15, CommSeconds: 0.01},
	}}
	a := Attribute(old, cur)
	top := a.Top()
	if top == nil || top.TopPhase() != "exec" {
		t.Fatalf("legacy fallback phase = %v, want exec", top)
	}
}

// TestAttributeDuplicateLayerNames: nets repeat layer shapes; duplicates
// match positionally, and a removed duplicate is reported.
func TestAttributeDuplicateLayerNames(t *testing.T) {
	old := &Snapshot{Schema: SchemaVersion, Workloads: []Workload{
		{Name: "w", MachineSeconds: 0.03, Layers: []LayerCost{
			{Name: "conv", Seconds: 0.01, Strategy: "a"},
			{Name: "conv", Seconds: 0.02, Strategy: "b"},
		}},
	}}
	cur := &Snapshot{Schema: SchemaVersion, Workloads: []Workload{
		{Name: "w", MachineSeconds: 0.01, Layers: []LayerCost{
			{Name: "conv", Seconds: 0.01, Strategy: "a"},
		}},
	}}
	a := Attribute(old, cur)
	if a.Zero() {
		t.Fatal("removed duplicate layer attributed to zero")
	}
	var removed bool
	for _, l := range a.Workloads[0].Layers {
		if l.Removed && l.OldSeconds == 0.02 {
			removed = true
		}
	}
	if !removed {
		t.Fatalf("removed duplicate not reported: %+v", a.Workloads[0].Layers)
	}
}

// TestWorkloadRoundTrip: the new fields survive the JSON snapshot format
// and old snapshots (without them) still load.
func TestWorkloadRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	path := t.TempDir() + "/bench.json"
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w := back.Lookup("vgg16-b8-g4")
	if w == nil || len(w.Layers) != 3 || w.Layers[1].Strategy != "s2" {
		t.Fatalf("layers did not round-trip: %+v", w)
	}
	if w.ExecSeconds != 0.090 || w.CommSeconds != 0.010 {
		t.Fatalf("phase seconds did not round-trip: %+v", w)
	}
	if !Attribute(snap, back).Zero() {
		t.Fatal("round-tripped snapshot not zero against source")
	}
}
