package sw26010

import (
	"fmt"

	"swatop/internal/faults"
)

// Machine is the simulated state of one core group during the execution of
// one operator: a simulated clock with separate compute and DMA channels, an
// SPM allocator, reply-word bookkeeping for asynchronous DMA, and
// performance counters.
//
// The timing model is a two-channel timeline. Compute statements advance the
// compute clock. DMA operations are queued on the (single, shared) DMA
// engine: a transfer starts when both the engine is free and the issue point
// has been reached, and completes after its modelled transfer time.
// DMAWait synchronizes the compute clock with the transfer's completion.
// This reproduces the overlap behaviour double buffering exploits and the
// serialization a naive schedule suffers.
type Machine struct {
	// clock is the compute-channel time in seconds.
	clock float64
	// dmaFree is the earliest time the DMA engine can start a new transfer.
	dmaFree float64

	spm SPMAllocator

	// faults, when non-nil, is consulted at the DMA-transfer and
	// compute-advance injection points (faults.DMATransfer,
	// faults.ComputeStall). Nil in every production run.
	faults *faults.Injector

	replies map[string]*replyWord

	lastDMAStart, lastDMADone float64

	Counters Counters

	// Interp is the interpreter state an executor keeps with the machine
	// across runs (internal/exec keeps its ir.Walker here), so that it lives
	// as long as the machine. The machine never reads it; Reset keeps it.
	Interp any
}

// LastDMA reports the engine interval of the most recent IssueDMA — the
// hook execution tracing uses.
func (m *Machine) LastDMA() (start, done float64) { return m.lastDMAStart, m.lastDMADone }

type replyWord struct {
	// completions holds the completion times of transfers charged to this
	// reply word that have not been consumed by a wait yet.
	completions []float64
}

// Counters accumulates activity statistics for reports and tests.
type Counters struct {
	DMAOps            int64
	DMABlocks         int64
	DMABytesRequested int64
	DMABytesTouched   int64 // includes transaction waste
	DMATransactions   int64 // 128 B memory transactions moved
	GemmCalls         int64
	Flops             int64
	TransformOps      int64
	SPMPeakBytes      int64 // peak per-CPE SPM usage

	// ComputeSeconds and StallSeconds split the compute-channel clock into
	// time spent executing (compute statements, DMA issue and reply-word
	// polling costs) and time spent blocked (DMA waits, injected stalls).
	// Their sum always equals the compute clock.
	ComputeSeconds float64
	StallSeconds   float64
}

// AlignmentWasteBytes is the transaction padding Eq. 1 charges: bytes the
// memory system moved beyond what the schedule requested.
func (c Counters) AlignmentWasteBytes() int64 {
	return c.DMABytesTouched - c.DMABytesRequested
}

// NewMachine creates a machine at time zero with an empty SPM.
func NewMachine() *Machine {
	return &Machine{replies: make(map[string]*replyWord)}
}

// Reset returns the machine to time zero with an empty SPM, as NewMachine
// would, but keeps its fault injector, its SPM and reply-word storage and
// Interp.
func (m *Machine) Reset() {
	for _, r := range m.replies {
		r.completions = r.completions[:0]
	}
	m.spm.Reset()
	*m = Machine{spm: m.spm, faults: m.faults, replies: m.replies, Interp: m.Interp}
}

// Now returns the current compute-channel time in seconds.
func (m *Machine) Now() float64 { return m.clock }

// Elapsed returns the total simulated execution time: the compute clock
// joined with any still-outstanding DMA completions (an operator is not
// finished until its last DMA put lands in main memory).
func (m *Machine) Elapsed() float64 {
	t := m.clock
	for _, r := range m.replies {
		for _, c := range r.completions {
			if c > t {
				t = c
			}
		}
	}
	return t
}

// SetFaults attaches a fault injector (nil detaches). Reset preserves it:
// a fresh timeline on the same machine keeps the same failure environment.
func (m *Machine) SetFaults(in *faults.Injector) { m.faults = in }

// AdvanceCompute moves the compute clock forward by dt seconds. An armed
// compute-stall fault loses extra simulated time here, perturbing the
// measurement the way OS jitter perturbs a real one.
func (m *Machine) AdvanceCompute(dt float64) {
	if dt < 0 {
		panic("sw26010: negative compute time")
	}
	stall := m.faults.Stall(faults.ComputeStall)
	m.clock += dt + stall
	m.Counters.ComputeSeconds += dt
	m.Counters.StallSeconds += stall
}

// Snapshot captures the timeline and counters (for steady-state loop
// extrapolation in the executor's fast mode).
type Snapshot struct {
	Clock    float64
	DMAFree  float64
	Counters Counters
}

// Snapshot returns the current machine state.
func (m *Machine) Snapshot() Snapshot {
	return Snapshot{Clock: m.clock, DMAFree: m.dmaFree, Counters: m.Counters}
}

// FastForward advances the machine by `times` repetitions of the state
// delta since a snapshot: the executor simulates a few loop iterations,
// measures the steady-state per-iteration advance of both channels and the
// counters, and skips the interior. Reply-word bookkeeping is untouched
// (skipped iterations issue and consume equally).
func (m *Machine) FastForward(since Snapshot, times int64) {
	if times <= 0 {
		return
	}
	f := float64(times)
	m.clock += (m.clock - since.Clock) * f
	m.dmaFree += (m.dmaFree - since.DMAFree) * f
	c, p := &m.Counters, &since.Counters
	c.DMAOps += (c.DMAOps - p.DMAOps) * times
	c.DMABlocks += (c.DMABlocks - p.DMABlocks) * times
	c.DMABytesRequested += (c.DMABytesRequested - p.DMABytesRequested) * times
	c.DMABytesTouched += (c.DMABytesTouched - p.DMABytesTouched) * times
	c.DMATransactions += (c.DMATransactions - p.DMATransactions) * times
	c.GemmCalls += (c.GemmCalls - p.GemmCalls) * times
	c.Flops += (c.Flops - p.Flops) * times
	c.TransformOps += (c.TransformOps - p.TransformOps) * times
	c.ComputeSeconds += (c.ComputeSeconds - p.ComputeSeconds) * f
	c.StallSeconds += (c.StallSeconds - p.StallSeconds) * f
}

// SPM exposes the SPM allocator.
func (m *Machine) SPM() *SPMAllocator { return &m.spm }

// ResetSPM frees every SPM buffer, keeping their storage for the next
// kernel's, while leaving the clock, counters and reply words untouched. A
// network runtime calls it between operators: each generated kernel owns
// the whole scratch pad for its invocation (the coalesced per-operator
// region of §4.7), so whatever a kernel left allocated must not constrain
// its successor.
func (m *Machine) ResetSPM() { m.spm.Reset() }

// NoteSPMUsage records the current per-CPE SPM footprint into the peak
// counter.
func (m *Machine) NoteSPMUsage() {
	if used := int64(m.spm.UsedPerCPE()); used > m.Counters.SPMPeakBytes {
		m.Counters.SPMPeakBytes = used
	}
}

// DMARequest describes one asynchronous DMA operation at the core-group
// level: the per-CPE strided pattern (the attributes DMA inference computes)
// plus the direction. Sizes are in bytes.
type DMARequest struct {
	// BlockBytes is the contiguous block size each CPE transfers.
	BlockBytes int
	// BlockCount is the number of blocks per CPE.
	BlockCount int
	// StrideBytes is the main-memory distance between consecutive block
	// starts (>= BlockBytes for a legal pattern; == BlockBytes means a
	// fully contiguous transfer).
	StrideBytes int
	// OffsetBytes is the main-memory byte offset of the first block of CPE
	// (0,0); used for transaction alignment accounting.
	OffsetBytes int
	// Write is true for SPM→memory puts (which pay read-modify-write on
	// partial transactions), false for gets.
	Write bool
	// CPEs is the number of CPEs participating (64 in all paper scenarios,
	// smaller in degenerate schedules).
	CPEs int
}

// Validate rejects malformed requests.
func (r DMARequest) Validate() error {
	if r.BlockBytes <= 0 || r.BlockCount <= 0 {
		return fmt.Errorf("dma: non-positive block geometry %+v", r)
	}
	if r.StrideBytes < r.BlockBytes && r.BlockCount > 1 {
		return fmt.Errorf("dma: stride %d smaller than block %d", r.StrideBytes, r.BlockBytes)
	}
	if r.CPEs <= 0 || r.CPEs > NumCPE {
		return fmt.Errorf("dma: invalid CPE count %d", r.CPEs)
	}
	return nil
}

// transferTime models the engine-busy time of one DMA request, and returns
// the touched-byte count for the counters.
//
// Model: every block touches whole 128 B transactions; the left and right
// remainders are waste (Eq. 1's waste_size). Writes that partially cover a
// transaction pay a read-modify-write factor of 2 on the partial
// transactions. Bytes move at DMAEffBandwidth; each block additionally costs
// a descriptor-processing overhead.
func (r DMARequest) transferTime() (seconds float64, touched int64) {
	misalign := r.OffsetBytes % TransactionBytes
	perBlockTouched := int64((misalign + r.BlockBytes + TransactionBytes - 1) / TransactionBytes * TransactionBytes)
	blocks := int64(r.BlockCount) * int64(r.CPEs)
	touched = perBlockTouched * blocks

	bytesTime := float64(touched) / DMAEffBandwidth
	if r.Write {
		// Partial transactions at the block edges are read back, merged
		// and rewritten.
		partial := perBlockTouched - int64(r.BlockBytes)
		if partial > 0 {
			bytesTime += float64(partial*blocks) / DMAEffBandwidth
		}
	}
	overhead := float64(blocks) * DMABlockOverheadSeconds
	return bytesTime + overhead, touched
}

// IssueDMA queues a DMA request on the engine, charging the compute channel
// only the issue cost (the engine runs asynchronously). The transfer is
// recorded under the given reply word; a later WaitDMA(reply, n) blocks the
// compute channel until n completions have landed.
func (m *Machine) IssueDMA(reply string, req DMARequest) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if err := m.faults.Fire(faults.DMATransfer); err != nil {
		return fmt.Errorf("dma %q: injected transfer failure: %w", reply, err)
	}
	t, touched := req.transferTime()

	// Issue cost on the compute channel (writing the descriptor).
	m.clock += Seconds(30)
	m.Counters.ComputeSeconds += Seconds(30)

	start := m.clock + DMAStartupSeconds
	if m.dmaFree > start {
		start = m.dmaFree // engine serializes transfers
	}
	done := start + t
	m.dmaFree = done
	m.lastDMAStart, m.lastDMADone = start, done

	rw := m.replies[reply]
	if rw == nil {
		rw = &replyWord{}
		m.replies[reply] = rw
	}
	rw.completions = append(rw.completions, done)

	m.Counters.DMAOps++
	m.Counters.DMABlocks += int64(req.BlockCount) * int64(req.CPEs)
	m.Counters.DMABytesRequested += int64(req.BlockBytes) * int64(req.BlockCount) * int64(req.CPEs)
	m.Counters.DMABytesTouched += touched
	m.Counters.DMATransactions += touched / TransactionBytes
	return nil
}

// WaitDMA blocks the compute channel until `times` completions recorded
// under the reply word have landed (the swDMAWait primitive). Completions
// are consumed oldest-first, in the order they were issued: the engine
// serializes transfers and FastForward only moves it forward, so a reply
// word's completions are already sorted.
func (m *Machine) WaitDMA(reply string, times int) error {
	if times <= 0 {
		return fmt.Errorf("dma wait on %q for %d replies: count must be positive", reply, times)
	}
	rw := m.replies[reply]
	if rw == nil || len(rw.completions) < times {
		have := 0
		if rw != nil {
			have = len(rw.completions)
		}
		return fmt.Errorf("dma wait on %q for %d replies, only %d outstanding", reply, times, have)
	}
	last := rw.completions[times-1]
	// Compact in place: reslicing from the front would give up the consumed
	// capacity and make nearly every later IssueDMA append reallocate.
	rw.completions = rw.completions[:copy(rw.completions, rw.completions[times:])]
	if last > m.clock {
		m.Counters.StallSeconds += last - m.clock
		m.clock = last
	}
	// Polling the reply word costs a few cycles.
	m.clock += Seconds(10)
	m.Counters.ComputeSeconds += Seconds(10)
	return nil
}

// OutstandingDMA returns the number of unconsumed completions across all
// reply words — useful for leak checks in tests.
func (m *Machine) OutstandingDMA() int {
	n := 0
	for _, r := range m.replies {
		n += len(r.completions)
	}
	return n
}

// GLCopyTime models a global load/store fallback transfer of n bytes
// (1.48 GB/s, no transaction batching benefit). swATOP schedules never use
// it for bulk data; it exists for microbenchmarks and degenerate paths.
func GLCopyTime(bytes int64) float64 {
	return float64(bytes) / GLDGSTBandwidth
}
