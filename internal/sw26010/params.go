// Package sw26010 models one core group (CG) of the SW26010 many-core
// processor: 64 computing processing elements (CPEs) in an 8×8 mesh, each
// with a 64 KB software-managed scratch pad memory (SPM), a shared DMA
// engine to main memory, a register-communication mesh, and dual in-order
// pipelines (P0 compute / P1 memory) per CPE.
//
// The model is both functional (DMA operations move real float32 data) and
// timed (every operation advances a simulated clock using constants taken
// from published SW26010 measurements: Xu, Lin, Matsuoka, "Benchmarking
// SW26010 many-core processor", IPDPSW'17 — reference [24] of the paper).
// The timed behaviour is deliberately *more detailed* than the paper's
// Eq. (1)/(2) cost model (DMA engine serialization, per-block descriptor
// overhead, read-modify-write on partial transactions, micro-kernel
// remainder penalties), so the performance-model autotuner faces the same
// model-vs-reality gap it faces on hardware.
package sw26010

// Architectural constants of one SW26010 core group.
const (
	// ClockHz is the CPE clock frequency.
	ClockHz = 1.45e9

	// MeshDim is the side of the CPE mesh; NumCPE = MeshDim².
	MeshDim = 8
	// NumCPE is the number of computing processing elements per core group.
	NumCPE = MeshDim * MeshDim

	// SPMBytes is the scratch pad memory per CPE.
	SPMBytes = 64 * 1024

	// VectorWidth is the single-precision SIMD width (256-bit vectors).
	VectorWidth = 4

	// FlopsPerCPEPerCycle: one 4-wide fused multiply-add per cycle on P0.
	FlopsPerCPEPerCycle = 2 * VectorWidth

	// PeakGFlops is the single-precision peak of one core group.
	PeakGFlops = ClockHz * NumCPE * FlopsPerCPEPerCycle / 1e9 // ≈ 742 GFLOPS

	// NumCG is the number of core groups on the chip; experiments simulate
	// one CG and scale throughput by NumCG (batch-parallel execution, the
	// swCaffe deployment mode).
	NumCG = 4
)

// Memory system constants.
const (
	// TransactionBytes is the DRAM transaction granularity: even a 1-byte
	// touch transfers the whole 128 B transaction (paper §4.6).
	TransactionBytes = 128

	// DMAEffBandwidth is the achievable large-block DMA bandwidth
	// (stream triad measured 22.6 GB/s in [24]); the gap to peak is the
	// protocol efficiency the engine model applies on top of transaction
	// waste.
	DMAEffBandwidth = 22.6e9

	// DMAStartupSeconds is the fixed start-up latency of one DMA operation
	// (descriptor setup + first-response latency), the T_latency of Eq. 1.
	DMAStartupSeconds = 6.0e-7

	// DMABlockOverheadSeconds is the per-block descriptor-processing
	// overhead of strided transfers inside the DMA engine (≈7 engine
	// cycles). Eq. (1) in the paper does NOT model this term — it is one
	// of the deliberate second-order effects that make the simulator
	// richer than the autotuner's cost model.
	DMABlockOverheadSeconds = 5.0e-9

	// GLDGSTBandwidth is the global load/store bandwidth per CG
	// (1.48 GB/s in [24]); used only by fallback paths and microbenchmarks.
	GLDGSTBandwidth = 1.48e9

	// RegCommBandwidth is the aggregate register-communication bandwidth
	// of the CPE cluster (647.25 GB/s in [24]).
	RegCommBandwidth = 647.25e9

	// RegCommLatencyCycles is the P2P register communication latency.
	RegCommLatencyCycles = 11
)

// Seconds converts cycles to simulated seconds.
func Seconds(cycles float64) float64 { return cycles / ClockHz }

// Cycles converts simulated seconds to cycles.
func Cycles(seconds float64) float64 { return seconds * ClockHz }
