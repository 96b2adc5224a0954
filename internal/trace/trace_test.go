package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/trace"
)

func TestBusyTimeUnionsOverlaps(t *testing.T) {
	var l trace.Log
	l.Add(trace.KindGemm, "a", 0, 2)
	l.Add(trace.KindGemm, "b", 1, 2) // overlaps [1,2]
	l.Add(trace.KindGemm, "c", 5, 1) // disjoint
	if got := l.BusyTime(trace.KindGemm); got != 4 {
		t.Fatalf("busy = %g, want 4", got)
	}
	if l.BusyTime(trace.KindDMA) != 0 {
		t.Fatal("empty kind should be zero")
	}
}

func TestOverlap(t *testing.T) {
	var l trace.Log
	l.Add(trace.KindGemm, "", 0, 4)
	l.Add(trace.KindDMA, "", 2, 4)
	if got := l.Overlap(trace.KindGemm, trace.KindDMA); got != 2 {
		t.Fatalf("overlap = %g, want 2", got)
	}
	l2 := trace.Log{}
	l2.Add(trace.KindGemm, "", 0, 1)
	l2.Add(trace.KindDMA, "", 2, 1)
	if l2.Overlap(trace.KindGemm, trace.KindDMA) != 0 {
		t.Fatal("disjoint spans must not overlap")
	}
}

func TestEndAndSummary(t *testing.T) {
	var l trace.Log
	l.Add(trace.KindGemm, "", 0, 1)
	l.Add(trace.KindDMA, "", 0.5, 2)
	if l.End() != 2.5 {
		t.Fatalf("End = %g", l.End())
	}
	sum := l.Summary()
	for _, want := range []string{"gemm", "dma", "hidden behind compute"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	gantt := l.Gantt(40)
	if !strings.Contains(gantt, "G") || !strings.Contains(gantt, "D") {
		t.Fatalf("gantt missing marks:\n%s", gantt)
	}
	empty := (&trace.Log{}).Gantt(40)
	if !strings.Contains(empty, "empty") {
		t.Fatal("empty gantt should say so")
	}
}

// TestMergeTwoLayerGolden is the golden concatenation case: two per-layer
// timelines, each recorded from its own time zero with DMA prefetching
// partially hidden behind compute, merged back-to-back into one timeline.
// The merged log must preserve every intra-layer relation — busy times,
// the DMA/compute overlap, and the layer boundaries.
func TestMergeTwoLayerGolden(t *testing.T) {
	// Layer 1: compute [0,3], DMA [1,4] → 2 s of DMA hidden.
	l1 := &trace.Log{}
	l1.Add(trace.KindGemm, "conv1", 0, 3)
	l1.Add(trace.KindDMA, "get in", 1, 3)
	// Layer 2: compute [0,2], DMA [0.5,1.5] → 1 s of DMA hidden.
	l2 := &trace.Log{}
	l2.Add(trace.KindGemm, "conv2", 0, 2)
	l2.Add(trace.KindDMA, "get in", 0.5, 1)

	net := &trace.Log{}
	net.MergeGroup(0, 0, l1)
	net.MergeGroup(0, l1.End(), l2) // layer 2 starts where layer 1 ended
	if got := len(net.Events); got != 4 {
		t.Fatalf("merged %d events, want 4", got)
	}
	if got, want := net.End(), l1.End()+l2.End(); got != want {
		t.Fatalf("End = %g, want %g", got, want)
	}
	if got, want := net.BusyTime(trace.KindGemm), 5.0; got != want {
		t.Fatalf("gemm busy = %g, want %g", got, want)
	}
	if got, want := net.BusyTime(trace.KindDMA), 4.0; got != want {
		t.Fatalf("dma busy = %g, want %g", got, want)
	}
	// The per-layer overlaps must survive: 2 s (layer 1) + 1 s (layer 2).
	if got, want := net.Overlap(trace.KindGemm, trace.KindDMA), 3.0; got != want {
		t.Fatalf("overlap = %g, want %g — merge destroyed the DMA/compute structure", got, want)
	}
	// Layer 2's first event must sit exactly at the layer boundary.
	if got := net.Events[2].Start; got != 4 {
		t.Fatalf("layer 2 compute starts at %g, want 4", got)
	}

	// Rebasing with a negative offset inverts the concatenation.
	back := &trace.Log{}
	back.MergeGroup(0, -l1.End(), &trace.Log{Events: net.Events[2:]})
	if got := back.Overlap(trace.KindGemm, trace.KindDMA); got != 1 {
		t.Fatalf("rebased overlap = %g, want 1", got)
	}
	if back.Events[0].Start != 0 {
		t.Fatalf("rebased start = %g, want 0", back.Events[0].Start)
	}

	// Merging a nil log is a no-op, not a panic.
	net.MergeGroup(0, 0, nil)
	if len(net.Events) != 4 {
		t.Fatal("nil merge changed the log")
	}
}

// TestMergeNegativeOffset: merging with a negative offset shifts events
// left rigidly, keeps their Args, and a chain of negative merges composes
// like vector addition.
func TestMergeNegativeOffset(t *testing.T) {
	abs := &trace.Log{}
	abs.Add(trace.KindGemm, "g", 10, 2)
	abs.Add(trace.KindDMA, "d", 11, 2)
	abs.Tag(0, map[string]string{"op": "conv3_1"})

	rel := &trace.Log{}
	rel.MergeGroup(0, -10, abs)
	if rel.Events[0].Start != 0 || rel.Events[1].Start != 1 {
		t.Fatalf("rebase: starts %g, %g; want 0, 1", rel.Events[0].Start, rel.Events[1].Start)
	}
	if got, want := rel.Overlap(trace.KindGemm, trace.KindDMA), abs.Overlap(trace.KindGemm, trace.KindDMA); got != want {
		t.Fatalf("rebased overlap = %g, want %g", got, want)
	}
	if rel.Events[0].Args["op"] != "conv3_1" {
		t.Fatal("merge dropped event Args")
	}

	// Shifting further negative pushes starts below zero but keeps durations.
	neg := &trace.Log{}
	neg.MergeGroup(0, -5, rel)
	if neg.Events[0].Start != -5 || neg.Events[0].Dur != 2 {
		t.Fatalf("negative start = %g dur %g", neg.Events[0].Start, neg.Events[0].Dur)
	}
	if got := neg.BusyTime(trace.KindGemm); got != 2 {
		t.Fatalf("busy with negative starts = %g, want 2", got)
	}
}

// TestTouchingSpansBoundary pins the half-open interval semantics: spans
// that touch (sp.s == cur.e) coalesce for BusyTime but contribute zero
// Overlap — touching is not overlapping.
func TestTouchingSpansBoundary(t *testing.T) {
	var l trace.Log
	l.Add(trace.KindGemm, "a", 0, 2)
	l.Add(trace.KindGemm, "b", 2, 3) // starts exactly where a ends
	if got := l.BusyTime(trace.KindGemm); got != 5 {
		t.Fatalf("touching spans busy = %g, want 5 (must coalesce, not double-count)", got)
	}

	var o trace.Log
	o.Add(trace.KindGemm, "", 0, 2)
	o.Add(trace.KindDMA, "", 2, 2) // dma starts the instant compute ends
	if got := o.Overlap(trace.KindGemm, trace.KindDMA); got != 0 {
		t.Fatalf("touching spans overlap = %g, want 0", got)
	}
	// Shared endpoint in the middle: gemm [0,2] and [2,4] vs dma [1,3] —
	// the boundary point at t=2 must not be counted twice.
	var p trace.Log
	p.Add(trace.KindGemm, "", 0, 2)
	p.Add(trace.KindGemm, "", 2, 2)
	p.Add(trace.KindDMA, "", 1, 2)
	if got := p.Overlap(trace.KindGemm, trace.KindDMA); got != 2 {
		t.Fatalf("overlap = %g, want 2", got)
	}
}

// TestGanttZeroDurationAtEnd is the regression test for the out-of-range
// panic: a zero-duration event whose Start equals the timeline end used to
// compute lo == width and index past the row buffer.
func TestGanttZeroDurationAtEnd(t *testing.T) {
	var l trace.Log
	l.Add(trace.KindGemm, "", 0, 2)
	l.Add(trace.KindDMA, "done", 2, 0) // instant at the exact timeline end
	got := l.Gantt(40)
	if !strings.Contains(got, "G") {
		t.Fatalf("gantt lost the compute row:\n%s", got)
	}
	if strings.Contains(got, "wait") {
		t.Fatalf("wait row should be omitted when nothing stalled:\n%s", got)
	}
	// With a stall recorded, the wait row appears.
	l.Add(trace.KindWait, "rep", 1, 0.5)
	got = l.Gantt(40)
	if !strings.Contains(got, "wait") || !strings.Contains(got, "W") {
		t.Fatalf("gantt missing wait row:\n%s", got)
	}
}

// TestTag: events without Args share the stamped map; an event with its
// own Args gets a fresh copy in which its keys win, and neither the
// caller's map nor the event's original map is written.
func TestTag(t *testing.T) {
	var l trace.Log
	l.Add(trace.KindGemm, "before", 0, 1)
	l.Add(trace.KindGemm, "", 1, 1)
	inner := map[string]string{"op": "inner"}
	l.Events[1].Args = inner
	l.Add(trace.KindDMA, "", 1, 1)
	l.Add(trace.KindDMA, "", 2, 1)
	outer := map[string]string{"op": "outer", "layer": "3"}
	l.Tag(1, outer)
	if l.Events[0].Args != nil {
		t.Fatal("Tag stamped an event before from")
	}
	if got := l.Events[1].Args; got["op"] != "inner" || got["layer"] != "3" {
		t.Fatalf("own-Args event = %v, want op=inner layer=3", got)
	}
	if len(inner) != 1 || len(outer) != 2 || outer["op"] != "outer" {
		t.Fatalf("Tag wrote into a map it did not create: inner %v outer %v", inner, outer)
	}
	for _, ev := range l.Events[2:] {
		if fmt.Sprintf("%p", ev.Args) != fmt.Sprintf("%p", outer) {
			t.Fatalf("event without Args got a copy, not the shared map: %v", ev.Args)
		}
	}
	// Nil-safe: an empty log, a from at the end and a nil map are no-ops.
	(&trace.Log{}).Tag(0, outer)
	l.Tag(len(l.Events), nil)
}

// fleetLog builds a two-group timeline with deliberately overlapping
// intervals: both groups compute over [0,3] on the shared fleet clock, with
// per-group DMA and a gather at the end.
func fleetLog() *trace.Log {
	g0 := &trace.Log{}
	g0.Add(trace.KindGemm, "conv1 shard0", 0, 3)
	g0.Add(trace.KindDMA, "get in", 1, 1)
	g0.Tag(0, map[string]string{"op": "conv1", "group": "0"})
	g1 := &trace.Log{}
	g1.Add(trace.KindGemm, "conv1 shard1", 0, 3)
	g1.Add(trace.KindDMA, "get in", 0.5, 1)
	g1.Tag(0, map[string]string{"op": "conv1", "group": "1"})

	net := &trace.Log{}
	net.MergeGroup(0, 0, g0)
	net.MergeGroup(1, 0, g1)
	net.AddGroupArgs(0, trace.KindComm, "gather", 3, 0.5, nil)
	return net
}

// TestMergeGroupOverlappingTimelines is the satellite coverage for fleet
// merges: two groups with overlapping [0,3] intervals must keep distinct
// group rows, keep their Args, and render one Gantt row per group.
func TestMergeGroupOverlappingTimelines(t *testing.T) {
	net := fleetLog()
	if got := net.Groups(); got != 2 {
		t.Fatalf("Groups = %d, want 2", got)
	}
	if got := len(net.Events); got != 5 {
		t.Fatalf("merged %d events, want 5", got)
	}
	// Overlapping intervals stay distinct per group: both compute spans
	// survive with their own group stamp and Args.
	perGroup := map[int]int{}
	for _, ev := range net.Events {
		perGroup[ev.Group]++
		if ev.Kind == trace.KindGemm {
			if ev.Args["op"] != "conv1" {
				t.Fatalf("MergeGroup dropped Args: %+v", ev)
			}
			if ev.Args["group"] != map[int]string{0: "0", 1: "1"}[ev.Group] {
				t.Fatalf("event landed on the wrong group row: %+v", ev)
			}
		}
	}
	if perGroup[0] != 3 || perGroup[1] != 2 {
		t.Fatalf("events per group = %v, want 3/2", perGroup)
	}
	// MergeGroup overrides whatever group the source carried.
	src := &trace.Log{}
	src.AddGroupArgs(7, trace.KindGemm, "x", 0, 1, nil)
	dst := &trace.Log{}
	dst.MergeGroup(2, 1.5, src)
	if dst.Events[0].Group != 2 || dst.Events[0].Start != 1.5 {
		t.Fatalf("MergeGroup restamp wrong: %+v", dst.Events[0])
	}
	dst.MergeGroup(0, 0, nil) // nil is a no-op
	if len(dst.Events) != 1 {
		t.Fatal("nil merge changed the log")
	}

	// BusyTime is per core group: two groups computing [0,3] are 6 s of
	// group compute time; each group's DMA hides behind its own compute.
	if got := net.BusyTime(trace.KindGemm); got != 6 {
		t.Fatalf("fleet gemm busy = %g, want 6", got)
	}
	if got := net.Overlap(trace.KindGemm, trace.KindDMA); got != 2 {
		t.Fatalf("fleet overlap = %g, want 2", got)
	}

	// The Gantt renders one row per group, not per kind.
	gantt := net.Gantt(40)
	for _, want := range []string{"group0", "group1", "G", "C"} {
		if !strings.Contains(gantt, want) {
			t.Fatalf("fleet gantt missing %q:\n%s", want, gantt)
		}
	}
	if strings.Contains(gantt, "gemm") {
		t.Fatalf("fleet gantt still has per-kind rows:\n%s", gantt)
	}
	// A single-group log keeps the per-kind layout.
	single := &trace.Log{}
	single.Add(trace.KindGemm, "", 0, 1)
	if got := single.Gantt(40); !strings.Contains(got, "gemm") {
		t.Fatalf("single-group gantt lost per-kind rows:\n%s", got)
	}
}

// TestHiddenRatioPerGroup: compute on one core group never hides another
// group's DMA. Two groups, each fully hiding its own DMA, hide exactly all
// of the fleet's DMA time — the ratio is 1, not the 2 a cross-group sweep
// gives.
func TestHiddenRatioPerGroup(t *testing.T) {
	var l trace.Log
	for g := 0; g < 2; g++ {
		l.AddGroupArgs(g, trace.KindGemm, "", 0, 1, nil)
		l.AddGroupArgs(g, trace.KindDMA, "", 0, 1, nil)
	}
	if got := l.Overlap(trace.KindGemm, trace.KindDMA) / l.BusyTime(trace.KindDMA); got != 1 {
		t.Fatalf("hidden ratio = %g, want exactly 1", got)
	}
	if got := l.Roofline(0, 0, 1, 1).HiddenDMAFraction(); got != 1 {
		t.Fatalf("roofline hidden fraction = %g, want 1", got)
	}
	if sum := l.Summary(); !strings.Contains(sum, "busy 2000 ms (100%)") || !strings.Contains(sum, "hidden behind compute: 100%") {
		t.Fatalf("summary of two fully busy groups:\n%s", sum)
	}
}

// TestTraceOfRealRun: a double-buffered GEMM should show substantial DMA
// time hidden behind compute.
func TestTraceOfRealRun(t *testing.T) {
	seed, err := gemm.Seed(gemm.Params{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	st := dsl.Strategy{
		Factors:      map[string]int{"m": 128, "n": 128, "k": 128},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"C": {1, 0}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	}
	prog, err := core.Compile(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	binds, err := exec.BindVirtual(prog)
	if err != nil {
		t.Fatal(err)
	}
	var log trace.Log
	res, err := exec.Run(prog, binds, exec.Options{Trace: &log})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) == 0 {
		t.Fatal("no events recorded")
	}
	gemmBusy := log.BusyTime(trace.KindGemm)
	dmaBusy := log.BusyTime(trace.KindDMA)
	if gemmBusy <= 0 || dmaBusy <= 0 {
		t.Fatalf("busy times: gemm %g dma %g", gemmBusy, dmaBusy)
	}
	if gemmBusy > res.Seconds || dmaBusy > res.Seconds*1.01 {
		t.Fatalf("busy times exceed run time: gemm %g dma %g total %g", gemmBusy, dmaBusy, res.Seconds)
	}
	// The whole point of prefetching: most DMA time hides behind compute.
	ov := log.Overlap(trace.KindGemm, trace.KindDMA)
	if ov < 0.5*dmaBusy {
		t.Fatalf("only %.0f%% of DMA hidden behind compute — prefetching broken?", ov/dmaBusy*100)
	}
}
