package sw26010

import "fmt"

// SPMAllocator manages the per-CPE scratch pad memory as one coalesced
// region, the allocation strategy of the swATOP code generator (§4.7): all
// buffers of an operator are placed into a single region at fixed offsets.
//
// Capacity accounting is per-CPE: a core-group-level logical buffer of N
// float32 elements occupies ceil(N/64) elements of each CPE's 64 KB SPM
// (buffers are distributed uniformly across the 8×8 cluster, as the GEMM
// primitives require).
type SPMAllocator struct {
	allocs map[string]*SPMBuffer
	order  []string // allocation order for deterministic layout/reports
}

// SPMBuffer is a core-group-level logical SPM buffer.
type SPMBuffer struct {
	Name string
	// Elems is the logical float32 capacity at core-group level.
	Elems int
	// OffsetPerCPE is the buffer's byte offset within each CPE's SPM in
	// the coalesced layout.
	OffsetPerCPE int
	// Data is the functional storage (core-group level).
	Data []float32
}

// BytesPerCPE returns the per-CPE SPM footprint of the buffer.
func (b *SPMBuffer) BytesPerCPE() int {
	perCPE := (b.Elems + NumCPE - 1) / NumCPE
	// Round to vector alignment (16 B) as the real allocator does.
	bytes := perCPE * 4
	const align = 16
	return (bytes + align - 1) / align * align
}

// NewSPMAllocator creates an empty allocator.
func NewSPMAllocator() *SPMAllocator {
	return &SPMAllocator{allocs: make(map[string]*SPMBuffer)}
}

// Alloc reserves a logical buffer of elems float32 values. It fails when the
// per-CPE footprint would exceed the 64 KB SPM.
func (a *SPMAllocator) Alloc(name string, elems int) (*SPMBuffer, error) {
	if elems <= 0 {
		return nil, fmt.Errorf("spm: non-positive allocation %d for %q", elems, name)
	}
	if _, dup := a.allocs[name]; dup {
		return nil, fmt.Errorf("spm: buffer %q already allocated", name)
	}
	b := &SPMBuffer{Name: name, Elems: elems, Data: make([]float32, elems)}
	b.OffsetPerCPE = a.UsedPerCPE()
	if b.OffsetPerCPE+b.BytesPerCPE() > SPMBytes {
		return nil, fmt.Errorf("spm: allocating %q (%d B/CPE) exceeds %d B SPM (used %d B)",
			name, b.BytesPerCPE(), SPMBytes, b.OffsetPerCPE)
	}
	a.allocs[name] = b
	a.order = append(a.order, name)
	return b, nil
}

// Free releases a buffer.
func (a *SPMAllocator) Free(name string) error {
	if _, ok := a.allocs[name]; !ok {
		return fmt.Errorf("spm: freeing unknown buffer %q", name)
	}
	delete(a.allocs, name)
	for i, n := range a.order {
		if n == name {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	// Re-pack offsets (coalesced region).
	off := 0
	for _, n := range a.order {
		b := a.allocs[n]
		b.OffsetPerCPE = off
		off += b.BytesPerCPE()
	}
	return nil
}

// Get returns a live buffer.
func (a *SPMAllocator) Get(name string) (*SPMBuffer, error) {
	b, ok := a.allocs[name]
	if !ok {
		return nil, fmt.Errorf("spm: unknown buffer %q", name)
	}
	return b, nil
}

// UsedPerCPE returns the current per-CPE footprint in bytes.
func (a *SPMAllocator) UsedPerCPE() int {
	used := 0
	for _, n := range a.order {
		used += a.allocs[n].BytesPerCPE()
	}
	return used
}

// FitsSPM reports whether a set of buffer sizes (core-group-level float32
// counts) fits the per-CPE SPM simultaneously. The schedule validator uses
// this to prune candidates before lowering.
func FitsSPM(elemCounts ...int) bool {
	used := 0
	for _, n := range elemCounts {
		if n <= 0 {
			return false
		}
		perCPE := (n + NumCPE - 1) / NumCPE * 4
		const align = 16
		perCPE = (perCPE + align - 1) / align * align
		used += perCPE
	}
	return used <= SPMBytes
}
