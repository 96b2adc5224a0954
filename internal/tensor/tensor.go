// Package tensor provides dense float32 tensors with explicit layout
// information, plus the data-rearrangement routines (region copy, im2col,
// padding) that the swATOP operator lowerings are built on.
//
// Tensors are the "main memory" objects of the simulated SW26010 machine:
// DMA descriptors inferred by the IR optimizer address flat element offsets
// into a tensor's backing slice, so layout (the order in which logical
// dimensions are linearized) is a first-class property here.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense float32 tensor. Data is linearized according to Strides:
// the element at logical index (i0, i1, ..., ik) lives at
// sum(i_d * Strides[d]) in Data. A freshly created tensor is contiguous in
// the order given by its layout permutation.
type Tensor struct {
	Name    string
	Dims    []int // logical extent per dimension
	Strides []int // elements, per logical dimension
	Data    []float32
}

// New creates a contiguous tensor whose memory order equals the logical
// dimension order (row-major: last dimension fastest).
func New(name string, dims ...int) *Tensor {
	t, err := NewWithLayout(name, dims, nil)
	if err != nil {
		panic(err) // identity permutation is always valid
	}
	return t
}

// NewWithLayout creates a contiguous tensor with a permuted memory order.
// perm lists logical dimension indices from slowest-varying to
// fastest-varying. perm = [0 1 ... n-1] is row-major, and so is a nil perm:
// a program's tensor declaration leaves Layout nil for it.
func NewWithLayout(name string, dims []int, perm []int) (*Tensor, error) {
	t, err := newDesc(name, dims, perm)
	if err != nil {
		return nil, err
	}
	t.Data = make([]float32, t.Len())
	return t, nil
}

func newDesc(name string, dims []int, perm []int) (*Tensor, error) {
	if perm == nil {
		perm = identityPerm(len(dims))
	}
	if len(perm) != len(dims) {
		return nil, fmt.Errorf("tensor %s: perm has %d entries for %d dims", name, len(perm), len(dims))
	}
	seen := make([]bool, len(dims))
	for _, p := range perm {
		if p < 0 || p >= len(dims) || seen[p] {
			return nil, fmt.Errorf("tensor %s: invalid layout permutation %v", name, perm)
		}
		seen[p] = true
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("tensor %s: dimension %d has non-positive extent %d", name, i, d)
		}
	}
	strides := make([]int, len(dims))
	s := 1
	for i := len(perm) - 1; i >= 0; i-- {
		strides[perm[i]] = s
		s *= dims[perm[i]]
	}
	return &Tensor{
		Name:    name,
		Dims:    append([]int(nil), dims...),
		Strides: strides,
	}, nil
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// NewVirtual creates a tensor descriptor with shape and layout but no
// backing storage. The static cost estimator uses virtual tensors to reason
// about DMA access patterns of arbitrarily large operands without
// allocating them; calling At/Set on one panics.
func NewVirtual(name string, dims []int, perm []int) (*Tensor, error) {
	return newDesc(name, dims, perm)
}

// Rank returns the number of logical dimensions.
func (t *Tensor) Rank() int { return len(t.Dims) }

// Len returns the total number of elements.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

// Offset returns the flat element offset of a logical index.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.Dims) {
		panic(fmt.Sprintf("tensor %s: Offset got %d indices for rank %d", t.Name, len(idx), len(t.Dims)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= t.Dims[d] {
			panic(fmt.Sprintf("tensor %s: index %d out of range [0,%d) in dim %d", t.Name, i, t.Dims[d], d))
		}
		off += i * t.Strides[d]
	}
	return off
}

// At returns the element at a logical index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.Offset(idx...)] }

// Set stores an element at a logical index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.Offset(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero clears the tensor.
func (t *Tensor) Zero() { t.Fill(0) }

// Clone deep-copies the tensor, including its layout.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		Name:    t.Name,
		Dims:    append([]int(nil), t.Dims...),
		Strides: append([]int(nil), t.Strides...),
		Data:    append([]float32(nil), t.Data...),
	}
	return c
}

// FillPattern writes a deterministic, index-dependent pattern, useful for
// tests that need distinguishable values without randomness.
func (t *Tensor) FillPattern() {
	// A small LCG over the flat *logical* index keeps the pattern layout
	// independent: two tensors with the same dims and different layouts
	// compare equal element-wise.
	idx := make([]int, len(t.Dims))
	n := t.Len()
	for flat := 0; flat < n; flat++ {
		rem := flat
		for d := len(t.Dims) - 1; d >= 0; d-- {
			idx[d] = rem % t.Dims[d]
			rem /= t.Dims[d]
		}
		v := lcg(uint32(flat))
		t.Set(float32(v%2048)/256.0-4.0, idx...)
	}
}

func lcg(x uint32) uint32 { return x*1664525 + 1013904223 }

func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%v strides%v", t.Name, t.Dims, t.Strides)
	return b.String()
}

// MaxAbsDiff returns the maximum absolute element-wise difference between two
// tensors of identical dims (layouts may differ).
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if len(a.Dims) != len(b.Dims) {
		return 0, fmt.Errorf("rank mismatch: %d vs %d", len(a.Dims), len(b.Dims))
	}
	for d := range a.Dims {
		if a.Dims[d] != b.Dims[d] {
			return 0, fmt.Errorf("dim %d mismatch: %d vs %d", d, a.Dims[d], b.Dims[d])
		}
	}
	idx := make([]int, len(a.Dims))
	max := 0.0
	n := a.Len()
	for flat := 0; flat < n; flat++ {
		rem := flat
		for d := len(a.Dims) - 1; d >= 0; d-- {
			idx[d] = rem % a.Dims[d]
			rem /= a.Dims[d]
		}
		diff := float64(a.At(idx...)) - float64(b.At(idx...))
		if diff < 0 {
			diff = -diff
		}
		if diff > max {
			max = diff
		}
	}
	return max, nil
}
