package sw26010

import (
	"fmt"
	"slices"
)

// SPMAllocator manages the per-CPE scratch pad memory as one coalesced
// region, the allocation strategy of the swATOP code generator (§4.7): all
// buffers of an operator are placed into a single region at fixed offsets.
//
// Capacity accounting is per-CPE: a core-group-level logical buffer of N
// float32 elements occupies ceil(N/64) elements of each CPE's 64 KB SPM
// (buffers are distributed uniformly across the 8×8 cluster, as the GEMM
// primitives require).
//
// The allocator owns its buffers' functional storage for as long as it
// lives, as the hardware's region is the same 64 KB per CPE for every
// kernel: Free and Reset keep a buffer's store as a spare, and Alloc takes
// the smallest spare that holds it, cleared, before it makes a new one.
type SPMAllocator struct {
	bufs []*SPMBuffer // live, in allocation order: the coalesced layout
	// spare holds at most spareFloats floats, in an array so that an
	// allocator that never reuses pays nothing for it.
	spare [8][]float32
}

// spareFloats caps the spare storage at one SPM's logical capacity.
const spareFloats = SPMBytes * NumCPE / 4

// SPMBuffer is a core-group-level logical SPM buffer.
type SPMBuffer struct {
	Name string
	// Elems is the logical float32 capacity at core-group level.
	Elems int
	// OffsetPerCPE is the buffer's byte offset within each CPE's SPM in
	// the coalesced layout.
	OffsetPerCPE int
	// Data is the functional storage (core-group level), Elems long while
	// the buffer is allocated and nil once it is freed.
	Data []float32
}

// bytesPerCPE is the per-CPE SPM footprint of a buffer of elems floats,
// rounded to vector alignment (16 B) as the real allocator does.
func bytesPerCPE(elems int) int {
	const align = 16
	return ((elems+NumCPE-1)/NumCPE*4 + align - 1) / align * align
}

// BytesPerCPE returns the per-CPE SPM footprint of the buffer.
func (b *SPMBuffer) BytesPerCPE() int { return bytesPerCPE(b.Elems) }

// NewSPMAllocator creates an empty allocator, as the zero value is.
func NewSPMAllocator() *SPMAllocator { return &SPMAllocator{} }

// Alloc reserves a logical buffer of elems float32 values. It fails when the
// per-CPE footprint would exceed the 64 KB SPM; a rejected buffer takes no
// storage.
func (a *SPMAllocator) Alloc(name string, elems int) (*SPMBuffer, error) {
	if elems <= 0 {
		return nil, fmt.Errorf("spm: non-positive allocation %d for %q", elems, name)
	}
	if a.find(name) >= 0 {
		return nil, fmt.Errorf("spm: buffer %q already allocated", name)
	}
	off := a.UsedPerCPE()
	if off+bytesPerCPE(elems) > SPMBytes {
		return nil, fmt.Errorf("spm: allocating %q (%d B/CPE) exceeds %d B SPM (used %d B)",
			name, bytesPerCPE(elems), SPMBytes, off)
	}
	b := &SPMBuffer{Name: name, Elems: elems, OffsetPerCPE: off, Data: a.take(elems)}
	a.bufs = append(a.bufs, b)
	return b, nil
}

// Free releases a buffer and keeps its store.
func (a *SPMAllocator) Free(name string) error {
	i := a.find(name)
	if i < 0 {
		return fmt.Errorf("spm: freeing unknown buffer %q", name)
	}
	a.release(a.bufs[i])
	a.bufs = slices.Delete(a.bufs, i, i+1)
	// Re-pack offsets (coalesced region).
	off := 0
	for _, b := range a.bufs {
		b.OffsetPerCPE = off
		off += b.BytesPerCPE()
	}
	return nil
}

// Reset releases every buffer and keeps their stores.
func (a *SPMAllocator) Reset() {
	for _, b := range a.bufs {
		a.release(b)
	}
	clear(a.bufs)
	a.bufs = a.bufs[:0]
}

// UsedPerCPE returns the current per-CPE footprint in bytes.
func (a *SPMAllocator) UsedPerCPE() int {
	used := 0
	for _, b := range a.bufs {
		used += b.BytesPerCPE()
	}
	return used
}

func (a *SPMAllocator) find(name string) int {
	return slices.IndexFunc(a.bufs, func(b *SPMBuffer) bool { return b.Name == name })
}

// smallestSpare is the index of the smallest spare of at least n floats, or
// -1.
func (a *SPMAllocator) smallestSpare(n int) int {
	best := -1
	for i, s := range a.spare {
		if s != nil && cap(s) >= n && (best < 0 || cap(s) < cap(a.spare[best])) {
			best = i
		}
	}
	return best
}

// take returns a zeroed store of n floats.
func (a *SPMAllocator) take(n int) []float32 {
	i := a.smallestSpare(n)
	if i < 0 {
		return make([]float32, n)
	}
	s := a.spare[i][:n]
	a.spare[i] = nil
	clear(s)
	return s
}

// release keeps b's store as a spare and detaches it from b, which then
// holds no storage a later buffer may own. Smaller spares make room for it;
// a store smaller than every spare is dropped instead.
func (a *SPMAllocator) release(b *SPMBuffer) {
	s := b.Data
	b.Data = nil
	for {
		empty, total := -1, cap(s)
		for i, t := range a.spare {
			if t == nil {
				empty = i
			}
			total += cap(t)
		}
		if empty >= 0 && total <= spareFloats {
			a.spare[empty] = s
			return
		}
		i := a.smallestSpare(1) // >= 0: a full array or the cap exceeded holds some spare
		if cap(a.spare[i]) >= cap(s) {
			return
		}
		a.spare[i] = nil
	}
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
		used += bytesPerCPE(n)
	}
	return used <= SPMBytes
}
