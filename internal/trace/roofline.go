package trace

import (
	"fmt"
	"strings"
)

// Roofline is a utilization summary of one timeline against the machine's
// peaks: how close compute came to peak FLOP throughput, how close the DMA
// engine came to its published stream bandwidth, and how much of the DMA
// time double buffering hid behind compute. The trace package stays
// machine-agnostic — callers pass the counters and peaks (for the SW26010:
// sw26010.PeakGFlops and DMAEffBandwidth, the paper's 22.6 GB/s).
type Roofline struct {
	// Seconds is the timeline length (Log.End()).
	Seconds float64
	// AchievedGFLOPS is flops/Seconds; PeakGFLOPS the machine peak.
	AchievedGFLOPS float64
	PeakGFLOPS     float64
	// DMAGBps is dmaBytes/Seconds; PeakDMAGBps the stream bandwidth.
	DMAGBps     float64
	PeakDMAGBps float64
	// ComputeBusy / DMABusy are the busy times of the two channels and
	// HiddenDMA their overlap (DMA time hidden behind compute), each per
	// core group and summed over the groups (see Log.BusyTime).
	ComputeBusy float64
	DMABusy     float64
	HiddenDMA   float64
}

// Roofline computes the utilization summary from the timeline and the
// machine counters accumulated during it: flops executed, DMA bytes
// touched, and the machine's peak compute and DMA-bandwidth rooflines
// (peakGFlops in GFLOPS, peakDMABytesPerSec in bytes/s).
func (l *Log) Roofline(flops, dmaBytes int64, peakGFlops, peakDMABytesPerSec float64) Roofline {
	r := Roofline{
		Seconds:     l.End(),
		PeakGFLOPS:  peakGFlops,
		PeakDMAGBps: peakDMABytesPerSec / 1e9,
		ComputeBusy: l.BusyTime(KindGemm),
		DMABusy:     l.BusyTime(KindDMA),
		HiddenDMA:   l.Overlap(KindGemm, KindDMA),
	}
	if r.Seconds > 0 {
		r.AchievedGFLOPS = float64(flops) / r.Seconds / 1e9
		r.DMAGBps = float64(dmaBytes) / r.Seconds / 1e9
	}
	return r
}

// ComputeUtilization is achieved/peak GFLOPS in [0,1] (Winograd schedules
// can exceed 1 when callers pass direct-convolution FLOP counts).
func (r Roofline) ComputeUtilization() float64 {
	if r.PeakGFLOPS <= 0 {
		return 0
	}
	return r.AchievedGFLOPS / r.PeakGFLOPS
}

// DMAUtilization is achieved/peak DMA bandwidth in [0,1].
func (r Roofline) DMAUtilization() float64 {
	if r.PeakDMAGBps <= 0 {
		return 0
	}
	return r.DMAGBps / r.PeakDMAGBps
}

// HiddenDMAFraction is the share of DMA busy time hidden behind compute.
func (r Roofline) HiddenDMAFraction() float64 {
	if r.DMABusy <= 0 {
		return 0
	}
	return r.HiddenDMA / r.DMABusy
}

// String renders the roofline block the CLIs print under a timeline
// summary.
func (r Roofline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "roofline over %.4g ms:\n", r.Seconds*1e3)
	fmt.Fprintf(&b, "  compute  %.1f GFLOPS of %.0f peak (%.0f%%)\n",
		r.AchievedGFLOPS, r.PeakGFLOPS, r.ComputeUtilization()*100)
	fmt.Fprintf(&b, "  dma      %.2f GB/s of %.1f peak (%.0f%%)\n",
		r.DMAGBps, r.PeakDMAGBps, r.DMAUtilization()*100)
	if r.DMABusy > 0 {
		fmt.Fprintf(&b, "  overlap  %.0f%% of DMA time hidden behind compute\n",
			r.HiddenDMAFraction()*100)
	}
	return b.String()
}
