package tensor

import "fmt"

// Region describes a hyper-rectangular sub-volume of a tensor: per-dimension
// start offsets and extents. Regions are what the lowered IR moves between
// main memory and SPM; the DMA-inference pass flattens them into
// (offset, block, stride) descriptors using the tensor's strides.
type Region struct {
	Start  []int
	Extent []int
}

// CheckRegion validates a start/extent pair against the tensor: matching
// rank, positive extents, every dimension inside the tensor's bounds.
func CheckRegion(t *Tensor, start, extent []int) error {
	if len(start) != t.Rank() || len(extent) != t.Rank() {
		return fmt.Errorf("region rank mismatch for %s: start %d extent %d rank %d",
			t.Name, len(start), len(extent), t.Rank())
	}
	for d := range start {
		if start[d] < 0 || extent[d] <= 0 || start[d]+extent[d] > t.Dims[d] {
			return fmt.Errorf("region [%d:%d+%d) out of bounds for %s dim %d (extent %d)",
				start[d], start[d], extent[d], t.Name, d, t.Dims[d])
		}
	}
	return nil
}

// Len returns the number of elements in the region.
func (r Region) Len() int {
	n := 1
	for _, e := range r.Extent {
		n *= e
	}
	return n
}

// Blocks describes a strided flat access pattern: count blocks of block
// contiguous elements, consecutive block starts separated by stride
// elements, the first block starting at offset.
type Blocks struct {
	Offset int // elements from the start of the backing slice
	Block  int // contiguous elements per block
	Stride int // elements between consecutive block starts
	Count  int // number of blocks
}

// Total returns the number of elements transferred.
func (b Blocks) Total() int { return b.Block * b.Count }

// stackRank is the tensor rank up to which flattening keeps its dimension
// order and odometer on the stack; higher ranks spill to the heap.
const stackRank = 4

// flatten is the one flattening routine: it derives the pattern geometry,
// reports the first descriptor and the exact descriptor count through size
// (when non-nil) and then visits the descriptors (when visit is non-nil).
// Dimensions are taken from fastest-varying to
// slowest: a maximal run of dimensions that are (a) fully covered and (b)
// memory-adjacent fuses into the contiguous block; the next
// partially-covered dimension becomes the stride loop; the remaining outer
// dimensions with extent != 1 multiply into separate descriptors that share
// Block/Stride/Count and differ only in Offset.
func (r Region) flatten(t *Tensor, size func(first Blocks, n int), visit func(Blocks)) error {
	rank := t.Rank()
	if len(r.Start) != rank || len(r.Extent) != rank {
		return fmt.Errorf("region rank %d/%d vs tensor rank %d", len(r.Start), len(r.Extent), rank)
	}
	var stack [2 * stackRank]int
	scratch := stack[:]
	if rank > stackRank {
		scratch = make([]int, 2*rank)
	}
	order, idx := scratch[:0:rank], scratch[rank:2*rank]
	// Order dimensions by increasing stride (fastest first).
	for i := 0; i < rank; i++ {
		order = append(order, i)
		for j := i; j > 0 && t.Strides[order[j]] < t.Strides[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	base := 0
	for d := range r.Start {
		base += r.Start[d] * t.Strides[d]
	}

	// Grow the contiguous block through fully-covered adjacent dims.
	block := 1
	k := 0
	for ; k < rank; k++ {
		d := order[k]
		if t.Strides[d] != block {
			break
		}
		if r.Extent[d] == t.Dims[d] {
			block *= t.Dims[d]
			continue
		}
		// Partially covered: the covered part extends the block, then stop.
		block *= r.Extent[d]
		k++
		break
	}

	// The next dimension (if any) is the strided loop.
	b := Blocks{Offset: base, Block: block, Stride: block, Count: 1}
	if k < rank {
		sd := order[k]
		b.Stride, b.Count = t.Strides[sd], r.Extent[sd]
		k++
	}

	// Any remaining dimensions with extent != 1 produce separate
	// descriptors; compact them to the front of order.
	outer, n := order[:0], 1
	for ; k < rank; k++ {
		if d := order[k]; r.Extent[d] != 1 {
			outer = append(outer, d)
			n *= r.Extent[d]
		}
	}
	if size != nil {
		size(b, n)
	}
	if n <= 0 || visit == nil {
		return nil
	}
	// Odometer over the outer dimensions: the first varies slowest, the
	// last fastest.
	for {
		visit(b)
		j := len(outer) - 1
		for ; j >= 0; j-- {
			d := outer[j]
			idx[j]++
			b.Offset += t.Strides[d]
			if idx[j] < r.Extent[d] {
				break
			}
			b.Offset -= idx[j] * t.Strides[d]
			idx[j] = 0
		}
		if j < 0 {
			return nil
		}
	}
}

// FlattenEach converts a region into one or more strided block patterns
// against the tensor's layout and calls visit on each in turn, without
// materialising them.
func (r Region) FlattenEach(t *Tensor, visit func(Blocks)) error {
	return r.flatten(t, nil, visit)
}

// FlattenMulti collects the descriptors FlattenEach visits, in the same
// order, into an exactly-sized slice.
func (r Region) FlattenMulti(t *Tensor) ([]Blocks, error) {
	var out []Blocks
	err := r.flatten(t, func(_ Blocks, n int) { out = make([]Blocks, 0, n) }, func(b Blocks) { out = append(out, b) })
	return out, err
}

// Geometry is the geometry half of the routine alone: the first descriptor
// FlattenEach would visit and how many it would visit (≥ 1 for a region
// CheckRegion accepts) — all a transfer's timing needs of the pattern.
func (r Region) Geometry(t *Tensor) (first Blocks, n int, err error) {
	err = r.flatten(t, func(b Blocks, cnt int) { first, n = b, cnt }, nil)
	return first, n, err
}

// CopyRegionOut gathers a region of src into dst (a flat buffer) in the
// region's logical order (row-major over the region's own dims). dst must
// have r.Len() capacity. Returns the number of elements copied.
func CopyRegionOut(src *Tensor, r Region, dst []float32) (int, error) {
	return eachInRegion(src, r, "dst", len(dst), func(off, pos int) { dst[pos] = src.Data[off] })
}

// CopyRegionIn scatters src (a flat buffer in the region's logical row-major
// order) into a region of dst.
func CopyRegionIn(dst *Tensor, r Region, src []float32) (int, error) {
	return eachInRegion(dst, r, "src", len(src), func(off, pos int) { dst.Data[off] = src[pos] })
}

// AccumulateRegionIn adds src into a region of dst element-wise (used for
// output tiles accumulated across reduction loops that were split across
// DMA round trips).
func AccumulateRegionIn(dst *Tensor, r Region, src []float32) (int, error) {
	return eachInRegion(dst, r, "src", len(src), func(off, pos int) { dst.Data[off] += src[pos] })
}

// eachInRegion calls f with the flat offset in t of every element of the
// region and its position in the region's row-major order, once a flat
// buffer of bufLen elements has been checked to hold the region.
func eachInRegion(t *Tensor, r Region, buf string, bufLen int, f func(off, pos int)) (int, error) {
	n := r.Len()
	if bufLen < n {
		return 0, fmt.Errorf("%s too small: %d < %d", buf, bufLen, n)
	}
	pos := 0
	var rec func(d int, off int)
	rec = func(d int, off int) {
		if d == t.Rank() {
			f(off, pos)
			pos++
			return
		}
		o := off + r.Start[d]*t.Strides[d]
		for i := 0; i < r.Extent[d]; i++ {
			rec(d+1, o)
			o += t.Strides[d]
		}
	}
	rec(0, 0)
	return n, nil
}
