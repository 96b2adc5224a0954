package sw26010

import "swatop/internal/metrics"

// Publish writes the counter values into the registry as machine_* gauges.
// Gauges (Set for totals, Max for the SPM peak) make the publish idempotent:
// callers republish the same accumulated Counters after every run without
// double-counting, and the snapshot always reflects the machine's lifetime
// totals. A nil registry is a no-op.
//
// When several machines publish into one registry — the multi-core-group
// fleet — each must use its own namespace or the gauges overwrite each
// other: pass a scoped registry (reg.Scope("group0_")), which publishes
// group0_machine_dma_ops_total and so on.
func (c Counters) Publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("machine_dma_ops_total").Set(float64(c.DMAOps))
	reg.Gauge("machine_dma_blocks_total").Set(float64(c.DMABlocks))
	reg.Gauge("machine_dma_bytes_requested_total").Set(float64(c.DMABytesRequested))
	reg.Gauge("machine_dma_bytes_touched_total").Set(float64(c.DMABytesTouched))
	reg.Gauge("machine_dma_waste_bytes_total").Set(float64(c.AlignmentWasteBytes()))
	reg.Gauge("machine_dma_transactions_total").Set(float64(c.DMATransactions))
	reg.Gauge("machine_gemm_calls_total").Set(float64(c.GemmCalls))
	reg.Gauge("machine_flops_total").Set(float64(c.Flops))
	reg.Gauge("machine_transform_ops_total").Set(float64(c.TransformOps))
	reg.Gauge("machine_spm_peak_bytes").Max(float64(c.SPMPeakBytes))
	reg.Gauge("machine_compute_seconds").Set(c.ComputeSeconds)
	reg.Gauge("machine_stall_seconds").Set(c.StallSeconds)
}

// Accumulate adds another machine's counters into c — the deterministic
// fleet merge: summing per-group counters in fixed group order yields the
// same aggregate regardless of how the groups' goroutines interleaved.
// SPMPeakBytes merges as a max (it is a peak, not a volume).
func (c *Counters) Accumulate(o Counters) {
	c.DMAOps += o.DMAOps
	c.DMABlocks += o.DMABlocks
	c.DMABytesRequested += o.DMABytesRequested
	c.DMABytesTouched += o.DMABytesTouched
	c.DMATransactions += o.DMATransactions
	c.GemmCalls += o.GemmCalls
	c.Flops += o.Flops
	c.TransformOps += o.TransformOps
	if o.SPMPeakBytes > c.SPMPeakBytes {
		c.SPMPeakBytes = o.SPMPeakBytes
	}
	c.ComputeSeconds += o.ComputeSeconds
	c.StallSeconds += o.StallSeconds
}
