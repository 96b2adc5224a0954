package tensor

import (
	"math/rand"
	"testing"
)

// referenceFlatten is the slice-building flattening FlattenMulti used before
// it became pre-size + visitor, kept verbatim as the oracle FlattenEach is
// checked against: same descriptors, same order.
func referenceFlatten(r Region, t *Tensor) []Blocks {
	order := make([]int, t.Rank())
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && t.Strides[order[j]] < t.Strides[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	base := 0
	for d := range r.Start {
		base += r.Start[d] * t.Strides[d]
	}
	block := 1
	k := 0
	for ; k < len(order); k++ {
		d := order[k]
		if t.Strides[d] != block {
			break
		}
		if r.Extent[d] == t.Dims[d] {
			block *= t.Dims[d]
			continue
		}
		block *= r.Extent[d]
		k++
		break
	}
	if k >= len(order) {
		return []Blocks{{Offset: base, Block: block, Stride: block, Count: 1}}
	}
	sd := order[k]
	blocks := Blocks{Offset: base, Block: block, Stride: t.Strides[sd], Count: r.Extent[sd]}
	k++
	out := []Blocks{blocks}
	for ; k < len(order); k++ {
		d := order[k]
		if r.Extent[d] == 1 {
			continue
		}
		next := make([]Blocks, 0, len(out)*r.Extent[d])
		for _, b := range out {
			for i := 0; i < r.Extent[d]; i++ {
				nb := b
				nb.Offset += i * t.Strides[d]
				next = append(next, nb)
			}
		}
		out = next
	}
	return out
}

// flattenCase decodes raw bytes into a tensor of rank 1..5 with a permuted
// layout and an in-bounds region: byte 0 picks the rank, then per dimension
// one byte each for extent-of-tensor, layout pick, region start and region
// extent. Missing bytes read as zero.
func flattenCase(raw []byte) (*Tensor, Region) {
	at := func(i int) int {
		if i < len(raw) {
			return int(raw[i])
		}
		return 0
	}
	rank := at(0)%5 + 1
	dims := make([]int, rank)
	perm := identityPerm(rank)
	start := make([]int, rank)
	extent := make([]int, rank)
	for d := 0; d < rank; d++ {
		dims[d] = at(1+4*d)%6 + 1
		// Fisher–Yates step driven by the input bytes.
		j := d + at(2+4*d)%(rank-d)
		perm[d], perm[j] = perm[j], perm[d]
		start[d] = at(3+4*d) % dims[d]
		extent[d] = at(4+4*d)%(dims[d]-start[d]) + 1
	}
	t, err := NewVirtual("x", dims, perm)
	if err != nil {
		panic(err) // a permutation of positive dims is always valid
	}
	return t, Region{Start: start, Extent: extent}
}

// checkFlatten compares the visitor and the collected slice against the
// reference on one case.
func checkFlatten(t *testing.T, x *Tensor, r Region) {
	t.Helper()
	if err := CheckRegion(x, r.Start, r.Extent); err != nil {
		t.Fatalf("generated region invalid: %v", err)
	}
	want := referenceFlatten(r, x)
	var visited []Blocks
	if err := r.FlattenEach(x, func(b Blocks) { visited = append(visited, b) }); err != nil {
		t.Fatal(err)
	}
	got, err := r.FlattenMulti(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cap(got) {
		t.Fatalf("FlattenMulti len %d != cap %d: not pre-sized exactly", len(got), cap(got))
	}
	if len(visited) != len(want) || len(got) != len(want) {
		t.Fatalf("dims %v strides %v region %+v: %d visited, %d collected, want %d",
			x.Dims, x.Strides, r, len(visited), len(got), len(want))
	}
	for i := range want {
		if visited[i] != want[i] || got[i] != want[i] {
			t.Fatalf("dims %v strides %v region %+v: descriptor %d visited %+v collected %+v want %+v",
				x.Dims, x.Strides, r, i, visited[i], got[i], want[i])
		}
	}
}

func TestFlattenEachMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20190805))
	raw := make([]byte, 21)
	ranks := map[int]int{}
	for i := 0; i < 5000; i++ {
		rng.Read(raw)
		x, r := flattenCase(raw)
		ranks[x.Rank()]++
		checkFlatten(t, x, r)
	}
	for rank := 1; rank <= 5; rank++ {
		if ranks[rank] == 0 {
			t.Errorf("rank %d never generated (heap fallback above rank %d must be covered)", rank, stackRank)
		}
	}
}

// TestGeometryMatchesFlattenEach: the geometry half alone reports the first
// descriptor the visitor is handed and how many it is handed, on the same
// seeded rank 1..5 permuted-layout regions, without allocating while the
// rank fits the stack scratch.
func TestGeometryMatchesFlattenEach(t *testing.T) {
	rng := rand.New(rand.NewSource(20190805))
	raw := make([]byte, 21)
	multi := 0
	for i := 0; i < 5000; i++ {
		rng.Read(raw)
		x, r := flattenCase(raw)
		var first Blocks
		visited := 0
		if err := r.FlattenEach(x, func(b Blocks) {
			if visited == 0 {
				first = b
			}
			visited++
		}); err != nil {
			t.Fatal(err)
		}
		got, n, err := r.Geometry(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != first || n != visited {
			t.Fatalf("dims %v strides %v region %+v: geometry %+v x%d, visitor %+v x%d",
				x.Dims, x.Strides, r, got, n, first, visited)
		}
		if n > 1 {
			multi++
		}
		if x.Rank() <= stackRank {
			if a := testing.AllocsPerRun(1, func() { r.Geometry(x) }); a != 0 {
				t.Fatalf("Geometry allocates %v times at rank %d", a, x.Rank())
			}
		}
	}
	if multi < 500 {
		t.Errorf("only %d multi-descriptor regions generated", multi)
	}
	x := New("x", 4, 4)
	if _, _, err := (Region{Start: []int{0}, Extent: []int{1, 1}}).Geometry(x); err == nil {
		t.Fatal("rank mismatch must be an error")
	}
}

func FuzzFlattenEach(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 1, 2, 7, 1, 0, 3, 5, 0, 2, 1})
	f.Add([]byte{4, 5, 3, 0, 4, 5, 2, 1, 1, 5, 1, 0, 2, 5, 0, 2, 2, 5, 0, 0, 5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		x, r := flattenCase(raw)
		checkFlatten(t, x, r)
	})
}

func TestFlattenRankMismatch(t *testing.T) {
	x := New("x", 4, 4)
	for _, r := range []Region{
		{Start: []int{0}, Extent: []int{1, 1}},
		{Start: []int{0, 0}, Extent: []int{1}},
	} {
		if err := r.FlattenEach(x, func(Blocks) { t.Fatal("visited a malformed region") }); err == nil {
			t.Fatalf("%+v: rank mismatch must be an error", r)
		}
		if _, err := r.FlattenMulti(x); err == nil {
			t.Fatalf("%+v: rank mismatch must be an error", r)
		}
	}
}

// TestFlattenMultiOneAlloc pins the allocation shape exec's one-shot and
// replay paths depend on: the result slice and nothing else, however many
// descriptors the region needs; the visitor alone allocates nothing.
func TestFlattenMultiOneAlloc(t *testing.T) {
	x := New("x", 6, 5, 8, 16)
	for _, r := range []Region{
		{Start: []int{0, 0, 0, 0}, Extent: []int{6, 5, 8, 16}}, // 1 descriptor
		{Start: []int{1, 1, 2, 4}, Extent: []int{4, 3, 5, 8}},  // 12 descriptors
	} {
		if n := testing.AllocsPerRun(100, func() { _, _ = r.FlattenMulti(x) }); n != 1 {
			t.Errorf("FlattenMulti %+v: %v allocations per call, want 1", r, n)
		}
		total := 0
		if n := testing.AllocsPerRun(100, func() { _ = r.FlattenEach(x, func(b Blocks) { total += b.Total() }) }); n != 0 {
			t.Errorf("FlattenEach %+v: %v allocations per call, want 0", r, n)
		}
	}
}
