// Package schedule resolves swATOP schedule spaces (§4.3): the Cartesian
// product of tile-factor candidates, loop-order candidates, layout
// candidates, vectorization choices and optimization toggles. Validity
// pruning (SPM capacity, vectorization rules, layout separability) happens
// when candidates are lowered; this package produces the raw points
// deterministically.
//
// A candidate is its index. Describe resolves a space once into a Dims, a
// mixed-radix number system with one digit per schedule decision, and
// Dims.At is the only mapping from an index to a strategy. Every consumer —
// the autotuner's walks and worker pool, the sample-efficient searchers,
// cross-shape transfer, the golden point lists — names a point by that
// index, so results merged by (score, index) are reproducible whatever
// order the points were evaluated in.
package schedule

import (
	"fmt"
	"slices"
	"sort"

	"swatop/internal/dsl"
	"swatop/internal/ir"
)

// Dims is a schedule space resolved against its seed: validated axis and
// tensor names, clipped factor menus and defaulted option axes. Digit order,
// most significant first: the tile factor of each axis (sorted axis names),
// the layout of each tensor (sorted tensor names), loop order,
// vectorization, double buffering, padding — so index 0 takes every first
// choice and the padding mode varies fastest. Immutable after Describe;
// safe for concurrent use.
type Dims struct {
	axes    []string
	factors [][]int // per axis
	tensors []string
	layouts [][][]int // per tensor
	orders  [][]string
	vecs    []ir.VecDim
	dbs     []bool
	pads    []dsl.PaddingMode
	size    int
}

// Describe validates a space against a seed and fixes the point order.
func Describe(seed *dsl.Seed, sp *dsl.Space) (*Dims, error) {
	d := &Dims{}
	for name := range sp.Factors {
		if _, err := seed.Axis(name); err != nil {
			return nil, fmt.Errorf("schedule: %w", err)
		}
		d.axes = append(d.axes, name)
	}
	sort.Strings(d.axes)
	for _, name := range d.axes {
		ax, _ := seed.Axis(name)
		var valid []int
		for _, f := range sp.Factors[name] {
			if f >= 1 && f <= ax.Extent && !slices.Contains(valid, f) {
				valid = append(valid, f)
			}
		}
		if len(valid) == 0 {
			valid = []int{1}
		}
		d.factors = append(d.factors, valid)
	}

	for name := range sp.Layouts {
		if _, err := seed.Tensor(name); err != nil {
			return nil, fmt.Errorf("schedule: %w", err)
		}
		d.tensors = append(d.tensors, name)
	}
	sort.Strings(d.tensors)
	for _, name := range d.tensors {
		d.layouts = append(d.layouts, sp.Layouts[name])
	}

	d.orders = sp.Orders
	if len(d.orders) == 0 {
		d.orders = [][]string{nil} // declaration order
	}
	d.vecs = sp.Vecs
	if len(d.vecs) == 0 {
		return nil, fmt.Errorf("schedule: space has no vectorization candidates")
	}
	d.dbs = sp.DoubleBuffer
	if len(d.dbs) == 0 {
		d.dbs = []bool{true}
	}
	d.pads = sp.Padding
	if len(d.pads) == 0 {
		d.pads = []dsl.PaddingMode{dsl.PadLightweight}
	}
	d.size = 1
	for _, r := range d.Radices() {
		d.size *= r
	}
	return d, nil
}

// Size is the number of points in the space.
func (d *Dims) Size() int { return d.size }

// Radices returns the per-digit cardinalities, most significant first. The
// returned slice is a copy; mutate freely.
func (d *Dims) Radices() []int {
	r := make([]int, 0, len(d.axes)+len(d.tensors)+4)
	for _, f := range d.factors {
		r = append(r, len(f))
	}
	for _, l := range d.layouts {
		r = append(r, len(l))
	}
	return append(r, len(d.orders), len(d.vecs), len(d.dbs), len(d.pads))
}

// At returns the schedule point at an index. It decodes the digits in
// place, least significant first, and allocates the strategy's two maps and
// nothing else; the maps are fresh, so a point may be retained, mutated and
// handed to a concurrent consumer. Panics when idx is out of [0, Size()).
func (d *Dims) At(idx int) dsl.Strategy {
	if idx < 0 || idx >= d.size {
		panic("schedule: index out of range")
	}
	digit := func(radix int) int {
		dig := idx % radix
		idx /= radix
		return dig
	}
	st := dsl.Strategy{
		Factors: make(map[string]int, len(d.axes)),
		Layouts: make(map[string][]int, len(d.tensors)),
	}
	st.Padding = d.pads[digit(len(d.pads))]
	st.DoubleBuffer = d.dbs[digit(len(d.dbs))]
	st.Vec = d.vecs[digit(len(d.vecs))]
	st.Order = d.orders[digit(len(d.orders))]
	for i := len(d.tensors) - 1; i >= 0; i-- {
		st.Layouts[d.tensors[i]] = d.layouts[i][digit(len(d.layouts[i]))]
	}
	for i := len(d.axes) - 1; i >= 0; i-- {
		st.Factors[d.axes[i]] = d.factors[i][digit(len(d.factors[i]))]
	}
	return st
}

// Stream yields every point of a schedule space in index order until yield
// returns false: Describe, then At at 0, 1, 2, ...
func Stream(seed *dsl.Seed, sp *dsl.Space, yield func(idx int, st dsl.Strategy) bool) error {
	d, err := Describe(seed, sp)
	if err != nil {
		return err
	}
	for idx := 0; idx < d.size; idx++ {
		if !yield(idx, d.At(idx)) {
			break
		}
	}
	return nil
}

// NearestIndex maps a strategy — possibly from another shape's schedule
// space — onto the in-space point closest to it: each digit picks the
// choice nearest the strategy's value (tile factors by smallest relative
// distance, discrete choices by exact match or the first candidate). This
// is how cross-shape transfer seeds a population: a neighbor shape's cached
// winner lands on a legal point of the new space.
func (d *Dims) NearestIndex(st dsl.Strategy) int {
	idx := 0
	digit := func(radix, choice int) { idx = idx*radix + max(choice, 0) } // -1: no match
	for i, name := range d.axes {
		digit(len(d.factors[i]), nearestFactor(d.factors[i], st.Factors[name]))
	}
	for i, name := range d.tensors {
		want := st.Layouts[name]
		digit(len(d.layouts[i]), slices.IndexFunc(d.layouts[i], func(l []int) bool { return slices.Equal(l, want) }))
	}
	digit(len(d.orders), slices.IndexFunc(d.orders, func(o []string) bool { return slices.Equal(o, st.Order) }))
	digit(len(d.vecs), slices.Index(d.vecs, st.Vec))
	digit(len(d.dbs), slices.Index(d.dbs, st.DoubleBuffer))
	digit(len(d.pads), slices.Index(d.pads, st.Padding))
	return idx
}

// nearestFactor picks the menu entry with the smallest relative distance to
// want (log-space distance, so 64→48 beats 64→128 beats 64→1). want <= 0
// (axis absent from the foreign strategy) picks the first entry.
func nearestFactor(menu []int, want int) int {
	if want <= 0 {
		return 0
	}
	best, bestDist := 0, -1.0
	for i, f := range menu {
		ratio := float64(f) / float64(want)
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if bestDist < 0 || ratio < bestDist {
			best, bestDist = i, ratio
		}
	}
	return best
}
