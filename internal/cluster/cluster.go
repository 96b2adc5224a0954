// Package cluster models a fleet of simulated SW26010 core groups — the
// scale-out unit the chip actually ships (4 CGs per node) and the one
// swCaffe's throughput story is built on. A Fleet owns N independent
// sw26010.Machine instances, one per core group; each machine keeps its own
// clock, SPM and counters, so per-group timelines stay deterministic no
// matter how the host schedules the groups' goroutines. The package also
// carries the analytic cost models for what the single-group simulator
// cannot see: cross-group communication (gathers, all-gathers, pipeline
// stage hand-offs) through the node's shared main memory, and the pipeline
// schedule that turns per-stage micro-batch durations into an aggregate
// fleet timeline.
package cluster

import (
	"fmt"

	"swatop/internal/metrics"
	"swatop/internal/sw26010"
)

// Cross-group communication constants. The four core groups of one SW26010
// node have no direct interconnect: data moves between them through the
// shared DDR3 memory, so a transfer pays one group's DMA write and another
// group's DMA read at the per-CG effective bandwidth — half the single-hop
// bandwidth — plus a synchronization handshake.
const (
	// InterGroupBandwidth is the effective bytes/s of one cross-group
	// transfer: store + load through shared memory at DMAEffBandwidth each.
	InterGroupBandwidth = sw26010.DMAEffBandwidth / 2

	// GroupSyncSeconds is the per-group synchronization latency of a
	// collective step (flag propagation through the memory system; the
	// same order as two DMA startups).
	GroupSyncSeconds = 2 * sw26010.DMAStartupSeconds
)

// Fleet is N simulated core groups. Construct with New; group indices are
// dense 0..Size()-1 and group 0 is the lead group (the one that owns
// gathers and whole-fleet outputs).
type Fleet struct {
	machines []*sw26010.Machine
}

// New creates a fleet of n fresh machines at time zero. n must be >= 1.
func New(n int) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: fleet size %d, want >= 1", n)
	}
	f := &Fleet{machines: make([]*sw26010.Machine, n)}
	for i := range f.machines {
		f.machines[i] = sw26010.NewMachine()
	}
	return f, nil
}

// Size is the number of core groups.
func (f *Fleet) Size() int { return len(f.machines) }

// Machine returns group i's machine.
func (f *Fleet) Machine(i int) *sw26010.Machine { return f.machines[i] }

// GroupPrefix is the metric-namespace prefix of group i ("group0_", ...).
// Every per-group metric in the fleet uses it, so N groups publish disjoint
// names into one shared registry.
func GroupPrefix(i int) string { return fmt.Sprintf("group%d_", i) }

// Publish writes every group's machine counters into the registry under
// its GroupPrefix namespace, plus the deterministically merged aggregate
// under the flat machine_* names (groups summed in index order).
func (f *Fleet) Publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	var agg sw26010.Counters
	for i, m := range f.machines {
		m.Counters.Publish(reg.Scope(GroupPrefix(i)))
		agg.Accumulate(m.Counters)
	}
	agg.Publish(reg)
	reg.Gauge("fleet_groups").Set(float64(f.Size()))
}

// ShardBatch splits a batch of b samples across n groups as evenly as
// possible: the first b%n groups take one extra sample. When b < n the
// trailing n-b shards are zero — those groups have no samples and callers
// must skip them (an empty shard is idle capacity, not work to execute).
// b must be >= 1: a batch of zero has nothing to shard, and callers that
// would pass 0 should reject it up front with their own error.
func ShardBatch(b, n int) ([]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: shard across %d groups", n)
	}
	if b < 1 {
		return nil, fmt.Errorf("cluster: shard batch %d, want >= 1 (a zero batch has no samples to distribute)", b)
	}
	shards := make([]int, n)
	base, extra := b/n, b%n
	for i := range shards {
		shards[i] = base
		if i < extra {
			shards[i]++
		}
	}
	return shards, nil
}

// CollectiveSeconds models a collective over a buffer of `bytes` whose
// slices are spread across n groups: the full buffer crosses the
// bottleneck DMA engine once at the cross-group bandwidth, plus one
// synchronization step per remote peer. A gather onto the lead group and an
// all-gather cost the same: in a gather the lead group pulls the n-1
// remote slices serially; in an all-gather every group writes its slice to
// shared memory and reads the others back, each moving the full buffer
// once. Zero for a single group — there is nothing to collect.
func CollectiveSeconds(bytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(bytes)/InterGroupBandwidth + float64(n-1)*GroupSyncSeconds
}

// StageTransferSeconds models handing one micro-batch's boundary
// activations from pipeline stage s to stage s+1: a single cross-group
// transfer plus one synchronization.
func StageTransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes)/InterGroupBandwidth + GroupSyncSeconds
}
