package sw26010

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPeakGFlops(t *testing.T) {
	// 64 CPEs × 8 flop/cycle × 1.45 GHz ≈ 742 GFLOPS per CG; ×4 CGs within
	// a few percent of the 3.06 TFLOPS chip peak the paper quotes.
	chip := PeakGFlops * NumCG
	if chip < 2900 || chip > 3100 {
		t.Fatalf("chip peak = %.0f GFLOPS, want ≈ 3060", chip)
	}
}

func TestDMAContiguousBandwidth(t *testing.T) {
	r := StreamTriadDMA(8192) // 32 KB per CPE per array
	if math.Abs(r.GBperSecond-22.6) > 1.5 {
		t.Fatalf("triad bandwidth = %.2f GB/s, want ≈ 22.6 (as in [24])", r.GBperSecond)
	}
}

func TestGLDGSTBandwidth(t *testing.T) {
	r := StreamGLDGST(1 << 26)
	if math.Abs(r.GBperSecond-1.48) > 0.01 {
		t.Fatalf("gld/gst = %.2f GB/s, want 1.48", r.GBperSecond)
	}
}

func TestRegCommBandwidth(t *testing.T) {
	r := RegCommBroadcast(1 << 16)
	if math.Abs(r.GBperSecond-647.25) > 30 {
		t.Fatalf("reg comm = %.2f GB/s, want ≈ 647", r.GBperSecond)
	}
}

func TestStridedSlowerThanContiguous(t *testing.T) {
	big := DMAStridedEfficiency(4096, 4)
	small := DMAStridedEfficiency(64, 256) // same bytes, tiny blocks
	if small.GBperSecond >= big.GBperSecond {
		t.Fatalf("small blocks (%.2f GB/s) must be slower than large (%.2f GB/s)",
			small.GBperSecond, big.GBperSecond)
	}
	// Sub-transaction blocks waste at least half the touched bytes.
	if small.GBperSecond > 0.6*big.GBperSecond {
		t.Fatalf("64 B blocks should lose ≥40%% bandwidth, got %.2f vs %.2f",
			small.GBperSecond, big.GBperSecond)
	}
}

func TestDMAWriteRMWPenalty(t *testing.T) {
	read := DMARequest{BlockBytes: 100, BlockCount: 16, StrideBytes: 300, CPEs: NumCPE}
	write := read
	write.Write = true
	tr, _ := read.transferTime()
	tw, _ := write.transferTime()
	if tw <= tr {
		t.Fatalf("partial-transaction writes must pay RMW: read %.3g write %.3g", tr, tw)
	}
	aligned := DMARequest{BlockBytes: 128, BlockCount: 16, StrideBytes: 384, Write: true, CPEs: NumCPE}
	alignedRead := aligned
	alignedRead.Write = false
	ta, _ := aligned.transferTime()
	tar, _ := alignedRead.transferTime()
	if ta != tar {
		t.Fatalf("aligned writes must not pay RMW: %.3g vs %.3g", ta, tar)
	}
}

func TestDMAAsyncOverlap(t *testing.T) {
	m := NewMachine()
	req := DMARequest{BlockBytes: 16384, BlockCount: 1, StrideBytes: 16384, CPEs: NumCPE}
	if err := m.IssueDMA("r", req); err != nil {
		t.Fatal(err)
	}
	issued := m.Now()
	m.AdvanceCompute(1e-3) // long compute fully hides the transfer
	if err := m.WaitDMA("r", 1); err != nil {
		t.Fatal(err)
	}
	hidden := m.Now() - issued
	if hidden > 1e-3+1e-6 {
		t.Fatalf("transfer not hidden behind compute: %.3g s", hidden)
	}

	m2 := NewMachine()
	if err := m2.IssueDMA("r", req); err != nil {
		t.Fatal(err)
	}
	if err := m2.WaitDMA("r", 1); err != nil {
		t.Fatal(err)
	}
	if m2.Now() <= DMAStartupSeconds {
		t.Fatalf("un-overlapped wait should expose transfer time, got %.3g", m2.Now())
	}
}

func TestDMAEngineSerializes(t *testing.T) {
	req := DMARequest{BlockBytes: 1 << 20, BlockCount: 1, StrideBytes: 1 << 20, CPEs: NumCPE}
	one := NewMachine()
	_ = one.IssueDMA("r", req)
	_ = one.WaitDMA("r", 1)
	single := one.Elapsed()

	two := NewMachine()
	_ = two.IssueDMA("r", req)
	_ = two.IssueDMA("r", req)
	_ = two.WaitDMA("r", 2)
	double := two.Elapsed()
	if double < 1.8*single {
		t.Fatalf("two transfers on one engine must serialize: %.3g vs %.3g", double, single)
	}
}

func TestWaitWithoutIssueFails(t *testing.T) {
	m := NewMachine()
	if err := m.WaitDMA("nope", 1); err == nil {
		t.Fatal("wait with no outstanding transfer must fail")
	}
	_ = m.IssueDMA("r", DMARequest{BlockBytes: 4, BlockCount: 1, StrideBytes: 4, CPEs: 1})
	if err := m.WaitDMA("r", 2); err == nil {
		t.Fatal("waiting for more replies than issued must fail")
	}
	if err := m.WaitDMA("r", 1); err != nil {
		t.Fatal(err)
	}
	if m.OutstandingDMA() != 0 {
		t.Fatal("reply leak")
	}
}

// TestWaitNonPositiveCount: waiting for zero or fewer replies is an error
// naming the reply word and the count, and consumes nothing.
func TestWaitNonPositiveCount(t *testing.T) {
	for _, times := range []int{0, -1} {
		m := NewMachine()
		if err := m.IssueDMA("r7", DMARequest{BlockBytes: 4, BlockCount: 1, StrideBytes: 4, CPEs: 1}); err != nil {
			t.Fatal(err)
		}
		err := m.WaitDMA("r7", times)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`"r7" for %d replies`, times)) {
			t.Fatalf("WaitDMA(r7, %d): err = %v, want an error naming the reply word and the count", times, err)
		}
		if m.OutstandingDMA() != 1 {
			t.Fatalf("WaitDMA(r7, %d) consumed a completion", times)
		}
	}
}

// TestIssueWaitSteadyStateNoAlloc: a reply word's completion queue is
// allocated once — issue and wait on a warmed reply word allocate nothing,
// with the queue drained completely and with a transfer left in flight.
func TestIssueWaitSteadyStateNoAlloc(t *testing.T) {
	m := NewMachine()
	req := DMARequest{BlockBytes: 256, BlockCount: 8, StrideBytes: 512, CPEs: NumCPE}
	step := func() {
		for _, err := range []error{
			m.IssueDMA("r", req), m.IssueDMA("r", req), m.WaitDMA("r", 1), // one left in flight
			m.IssueDMA("r", req), m.WaitDMA("r", 2), // drained
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("issue+wait on a warmed reply word allocates %v times per round", n)
	}
}

func TestDMARequestValidate(t *testing.T) {
	bad := []DMARequest{
		{BlockBytes: 0, BlockCount: 1, StrideBytes: 1, CPEs: 1},
		{BlockBytes: 8, BlockCount: 0, StrideBytes: 8, CPEs: 1},
		{BlockBytes: 8, BlockCount: 2, StrideBytes: 4, CPEs: 1},
		{BlockBytes: 8, BlockCount: 1, StrideBytes: 8, CPEs: 0},
		{BlockBytes: 8, BlockCount: 1, StrideBytes: 8, CPEs: 65},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("case %d: %+v should be invalid", i, r)
		}
	}
	ok := DMARequest{BlockBytes: 8, BlockCount: 2, StrideBytes: 8, CPEs: 64}
	if err := ok.Validate(); err != nil {
		t.Errorf("contiguous stride==block should be valid: %v", err)
	}
}

func TestSPMAllocCapacity(t *testing.T) {
	a := NewSPMAllocator()
	// 64 KB/CPE × 64 CPEs = 4 MB = 1M float32 at CG level.
	if _, err := a.Alloc("big", NumCPE*SPMBytes/4); err != nil {
		t.Fatalf("exactly-full allocation should fit: %v", err)
	}
	if _, err := a.Alloc("extra", 64); err == nil {
		t.Fatal("over-capacity allocation must fail")
	}
	if err := a.Free("big"); err != nil {
		t.Fatal(err)
	}
	if a.UsedPerCPE() != 0 {
		t.Fatal("free did not release capacity")
	}
}

func TestSPMCoalescedOffsets(t *testing.T) {
	a := NewSPMAllocator()
	b1, _ := a.Alloc("b1", 6400) // 100 floats/CPE = 400 B
	b2, _ := a.Alloc("b2", 6400)
	if b1.OffsetPerCPE != 0 || b2.OffsetPerCPE != b1.BytesPerCPE() {
		t.Fatalf("offsets not coalesced: %d %d", b1.OffsetPerCPE, b2.OffsetPerCPE)
	}
	if err := a.Free("b1"); err != nil {
		t.Fatal(err)
	}
	if b2.OffsetPerCPE != 0 {
		t.Fatal("free should repack the region")
	}
	if _, err := a.Get("b1"); err == nil {
		t.Fatal("Get after Free should fail")
	}
	if _, err := a.Get("b2"); err != nil {
		t.Fatal(err)
	}
}

func TestSPMDuplicateAndUnknown(t *testing.T) {
	a := NewSPMAllocator()
	if _, err := a.Alloc("x", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc("x", 64); err == nil {
		t.Fatal("duplicate alloc must fail")
	}
	if err := a.Free("y"); err == nil {
		t.Fatal("freeing unknown buffer must fail")
	}
	if _, err := a.Alloc("z", 0); err == nil {
		t.Fatal("zero-size alloc must fail")
	}
}

func TestFitsSPM(t *testing.T) {
	if !FitsSPM(NumCPE * SPMBytes / 4) {
		t.Fatal("full SPM should fit")
	}
	if FitsSPM(NumCPE*SPMBytes/4, 64) {
		t.Fatal("over capacity should not fit")
	}
	if FitsSPM(-1) || FitsSPM(0) {
		t.Fatal("non-positive sizes should not fit")
	}
}

// Property: DMA transfer time is monotone in block size and never below the
// pure-bandwidth bound.
func TestDMATimeMonotoneQuick(t *testing.T) {
	f := func(b0, c0 uint16) bool {
		block := int(b0%4096) + 1
		count := int(c0%64) + 1
		r1 := DMARequest{BlockBytes: block, BlockCount: count, StrideBytes: block * 2, CPEs: NumCPE}
		r2 := DMARequest{BlockBytes: block + 128, BlockCount: count, StrideBytes: (block + 128) * 2, CPEs: NumCPE}
		t1, touched := r1.transferTime()
		t2, _ := r2.transferTime()
		lower := float64(int64(block)*int64(count)*NumCPE) / DMAEffBandwidth
		return t2 >= t1 && t1 >= lower && touched >= int64(block)*int64(count)*NumCPE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestClockSplitInvariant: every path that moves the compute clock must
// classify the time as compute or stall, so the two always sum to the clock.
func TestClockSplitInvariant(t *testing.T) {
	m := NewMachine()
	req := DMARequest{BlockBytes: 100, BlockCount: 16, StrideBytes: 300, OffsetBytes: 4, CPEs: NumCPE}
	if err := m.IssueDMA("r", req); err != nil {
		t.Fatal(err)
	}
	m.AdvanceCompute(1e-6)
	if err := m.WaitDMA("r", 1); err != nil {
		t.Fatal(err)
	}
	c := m.Counters
	if math.Abs(m.Now()-(c.ComputeSeconds+c.StallSeconds)) > 1e-15 {
		t.Fatalf("clock %.9g != compute %.9g + stall %.9g", m.Now(), c.ComputeSeconds, c.StallSeconds)
	}
	if c.StallSeconds <= 0 {
		t.Fatal("an exposed DMA wait must register stall time")
	}
	if c.DMATransactions != c.DMABytesTouched/TransactionBytes {
		t.Fatalf("transactions %d, want touched/%d = %d",
			c.DMATransactions, TransactionBytes, c.DMABytesTouched/TransactionBytes)
	}
	// 100 B blocks offset by 4 straddle two 128 B transactions: waste > 0.
	if c.AlignmentWasteBytes() <= 0 {
		t.Fatalf("misaligned blocks must report waste, got %d", c.AlignmentWasteBytes())
	}

	// FastForward must scale the new fields with everything else.
	snap := m.Snapshot()
	m.AdvanceCompute(1e-6)
	before := m.Counters
	m.FastForward(snap, 3)
	want := before.ComputeSeconds + (before.ComputeSeconds-snap.Counters.ComputeSeconds)*3
	if math.Abs(m.Counters.ComputeSeconds-want) > 1e-15 {
		t.Fatalf("FastForward compute = %.9g, want %.9g", m.Counters.ComputeSeconds, want)
	}
	if math.Abs(m.Now()-(m.Counters.ComputeSeconds+m.Counters.StallSeconds)) > 1e-12 {
		t.Fatal("clock split invariant broken after FastForward")
	}
}

func TestElapsedIncludesOutstandingDMA(t *testing.T) {
	m := NewMachine()
	_ = m.IssueDMA("r", DMARequest{BlockBytes: 1 << 20, BlockCount: 1, StrideBytes: 1 << 20, CPEs: NumCPE})
	if m.Elapsed() <= m.Now() {
		t.Fatal("Elapsed must include in-flight DMA puts")
	}
}
