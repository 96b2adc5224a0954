package trace

import (
	"fmt"
	"strings"
	"testing"
)

// TestGanttCommLegend: fleet Gantt charts must attribute every comm event
// to its source and destination groups — an allgather lists every
// participating source, a gather into group0 says so.
func TestGanttCommLegend(t *testing.T) {
	l := &Log{}
	for g := 0; g < 2; g++ {
		l.AddGroupArgs(g, KindGemm, "conv head", 0, 0.004, nil)
		l.AddGroupArgs(g, KindComm, "allgather pool5", 0.004, 0.001, map[string]string{
			"src": fmt.Sprintf("group%d", g), "dst": "all groups"})
	}
	l.AddGroupArgs(1, KindComm, "gather outputs", 0.005, 0.0005, map[string]string{
		"src": "group1", "dst": "group0"})

	got := l.Gantt(64)
	for _, want := range []string{
		"comm:",
		"group0,group1 -> all groups",
		"group1 -> group0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Gantt missing %q:\n%s", want, got)
		}
	}
	// The two allgather events (one per group) merge into one legend line.
	if n := strings.Count(got, "allgather pool5"); n != 1 {
		t.Errorf("allgather appears %d times, want one merged legend line:\n%s", n, got)
	}
}

// TestGanttCommLegendFallback: comm events without src/dst args (older
// callers) still render, with the group-derived source and an unknown
// destination.
func TestGanttCommLegendFallback(t *testing.T) {
	l := &Log{}
	l.AddGroupArgs(0, KindGemm, "work", 0, 0.002, nil)
	l.AddGroupArgs(1, KindGemm, "work", 0, 0.002, nil)
	l.AddGroupArgs(1, KindComm, "xfer", 0.002, 0.001, nil)
	got := l.Gantt(64)
	if !strings.Contains(got, "group1 -> ?") {
		t.Errorf("legend fallback missing group1 -> ?:\n%s", got)
	}
}
