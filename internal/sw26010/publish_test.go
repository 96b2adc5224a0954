package sw26010

import (
	"testing"

	"swatop/internal/metrics"
)

func TestCountersPublish(t *testing.T) {
	m := NewMachine()
	req := DMARequest{BlockBytes: 100, BlockCount: 4, StrideBytes: 300, CPEs: NumCPE}
	if err := m.IssueDMA("r", req); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDMA("r", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SPM().Alloc("buf", 64*1024); err != nil {
		t.Fatal(err)
	}
	m.NoteSPMUsage()

	reg := metrics.NewRegistry()
	m.Counters.Publish(reg)
	// Republishing the same counters must be idempotent.
	m.Counters.Publish(reg)

	s := reg.Snapshot()
	if got := s.Gauges["machine_dma_bytes_touched_total"]; got != float64(m.Counters.DMABytesTouched) {
		t.Fatalf("touched = %g, want %d", got, m.Counters.DMABytesTouched)
	}
	if got := s.Gauges["machine_dma_waste_bytes_total"]; got != float64(m.Counters.AlignmentWasteBytes()) {
		t.Fatalf("waste = %g, want %d", got, m.Counters.AlignmentWasteBytes())
	}
	if s.Gauges["machine_spm_peak_bytes"] <= 0 {
		t.Fatal("SPM peak not published")
	}
	if s.Gauges["machine_compute_seconds"] <= 0 || s.Gauges["machine_stall_seconds"] <= 0 {
		t.Fatalf("clock split not published: %+v", s.Gauges)
	}

	// Nil registry is a no-op, not a panic.
	m.Counters.Publish(nil)
}

// TestPublishPrefixedDisjoint: two machines publishing into one registry
// through differently prefixed scopes must land on disjoint gauges carrying
// each machine's own counter values — the fleet invariant that N core groups
// never overwrite each other's machine_* namespace.
func TestPublishPrefixedDisjoint(t *testing.T) {
	run := func(m *Machine, blocks int) {
		req := DMARequest{BlockBytes: 128, BlockCount: blocks, StrideBytes: 256, CPEs: NumCPE}
		if err := m.IssueDMA("r", req); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitDMA("r", 1); err != nil {
			t.Fatal(err)
		}
	}
	m0, m1 := NewMachine(), NewMachine()
	run(m0, 2)
	run(m1, 7) // different workload: different counters

	reg := metrics.NewRegistry()
	m0.Counters.Publish(reg.Scope("group0_"))
	m1.Counters.Publish(reg.Scope("group1_"))

	s := reg.Snapshot()
	if got, want := s.Gauges["group0_machine_dma_blocks_total"], float64(m0.Counters.DMABlocks); got != want {
		t.Fatalf("group0 blocks = %g, want %g", got, want)
	}
	if got, want := s.Gauges["group1_machine_dma_blocks_total"], float64(m1.Counters.DMABlocks); got != want {
		t.Fatalf("group1 blocks = %g, want %g", got, want)
	}
	if s.Gauges["group0_machine_dma_blocks_total"] == s.Gauges["group1_machine_dma_blocks_total"] {
		t.Fatal("distinct workloads published identical gauges — namespaces collided")
	}
	// The flat machine_* names must not exist: nothing published unprefixed.
	if _, ok := s.Gauges["machine_dma_blocks_total"]; ok {
		t.Fatal("prefixed publish leaked into the flat machine_* namespace")
	}
	// Republishing stays idempotent per scope.
	m0.Counters.Publish(reg.Scope("group0_"))
	if got := reg.Snapshot().Gauges["group0_machine_dma_blocks_total"]; got != float64(m0.Counters.DMABlocks) {
		t.Fatalf("republish changed the gauge: %g", got)
	}
	// Nil registry stays a no-op.
	var none *metrics.Registry
	m0.Counters.Publish(none.Scope("group0_"))
}

// TestCountersAccumulate: the fleet's deterministic counter merge sums
// volumes and maxes the SPM peak.
func TestCountersAccumulate(t *testing.T) {
	a := Counters{DMAOps: 1, DMABytesTouched: 128, Flops: 10, SPMPeakBytes: 100, ComputeSeconds: 1, StallSeconds: 0.5}
	b := Counters{DMAOps: 2, DMABytesTouched: 256, Flops: 20, SPMPeakBytes: 50, ComputeSeconds: 2, StallSeconds: 0.25}
	a.Accumulate(b)
	if a.DMAOps != 3 || a.DMABytesTouched != 384 || a.Flops != 30 {
		t.Fatalf("bad volume sums: %+v", a)
	}
	if a.SPMPeakBytes != 100 {
		t.Fatalf("SPM peak must merge as max, got %d", a.SPMPeakBytes)
	}
	if a.ComputeSeconds != 3 || a.StallSeconds != 0.75 {
		t.Fatalf("bad clock sums: %+v", a)
	}
}
