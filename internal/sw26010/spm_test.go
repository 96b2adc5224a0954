package sw26010

import (
	"slices"
	"testing"
)

// spmState is what a rejected Alloc must leave alone: the live buffers with
// their offsets, and the spare stores by identity and capacity.
type spmState struct {
	bufs    []SPMBuffer
	spares  []*float32
	spareCp []int
}

func stateOf(a *SPMAllocator) spmState {
	var st spmState
	for _, b := range a.bufs {
		st.bufs = append(st.bufs, *b)
	}
	for _, s := range a.spare {
		var p *float32
		if cap(s) > 0 {
			p = &s[:1][0]
		}
		st.spares, st.spareCp = append(st.spares, p), append(st.spareCp, cap(s))
	}
	return st
}

func (s spmState) equal(o spmState) bool {
	return slices.EqualFunc(s.bufs, o.bufs, func(a, b SPMBuffer) bool {
		return a.Name == b.Name && a.Elems == b.Elems && a.OffsetPerCPE == b.OffsetPerCPE && &a.Data[0] == &b.Data[0]
	}) && slices.Equal(s.spares, o.spares) && slices.Equal(s.spareCp, o.spareCp)
}

// TestSPMRejectedAllocTakesNothing: an Alloc that fails — overflow,
// duplicate name, non-positive size — leaves the buffers, their offsets and
// the spare stores as they were, even when a spare would have held it.
func TestSPMRejectedAllocTakesNothing(t *testing.T) {
	a := NewSPMAllocator()
	for _, n := range []string{"x", "y", "z"} {
		if _, err := a.Alloc(n, 64*1024); err != nil { // 4 KiB per CPE each
			t.Fatal(err)
		}
	}
	if err := a.Free("y"); err != nil { // y's store is a spare, z re-packed
		t.Fatal(err)
	}
	if _, err := a.Alloc("fill", (SPMBytes-2*4096-16)/4*NumCPE); err != nil { // 16 B/CPE left
		t.Fatal(err)
	}
	before := stateOf(a)
	for _, c := range []struct {
		name  string
		elems int
	}{{"big", spareFloats}, {"small", 2000}, {"x", 16}, {"w", 0}} {
		if _, err := a.Alloc(c.name, c.elems); err == nil {
			t.Fatalf("Alloc(%q, %d) succeeded, want rejected", c.name, c.elems)
		}
		if after := stateOf(a); !after.equal(before) {
			t.Fatalf("rejected Alloc(%q, %d) changed the allocator:\n%+v\nwant\n%+v", c.name, c.elems, after, before)
		}
	}
}

// TestSPMReuseReadsZero: storage that a buffer takes back after Free,
// ResetSPM or Reset reads as zero at Alloc although the earlier buffer left
// data in it, and the earlier buffer keeps no reference to it.
func TestSPMReuseReadsZero(t *testing.T) {
	m := NewMachine()
	release := map[string]func(){
		"Free":     func() { _ = m.SPM().Free("q") },
		"ResetSPM": m.ResetSPM,
		"Reset":    m.Reset,
	}
	for _, how := range []string{"Free", "ResetSPM", "Reset"} {
		q, err := m.SPM().Alloc("q", 5000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range q.Data {
			q.Data[i] = float32(i + 1)
		}
		store := &q.Data[0]
		release[how]()
		if q.Data != nil {
			t.Fatalf("after %s the released buffer still holds its store", how)
		}
		p, err := m.SPM().Alloc("p", 3000)
		if err != nil {
			t.Fatal(err)
		}
		if &p.Data[0] != store {
			t.Fatalf("after %s Alloc made a new store instead of reusing the spare", how)
		}
		if len(p.Data) != 3000 || slices.ContainsFunc(p.Data, func(v float32) bool { return v != 0 }) {
			t.Fatalf("after %s a reused store reads %d elements, not all zero", how, len(p.Data))
		}
		m.Reset()
	}
}

// TestSPMSparesBestFitAndCapped: Alloc takes the smallest spare that holds
// it; the spares are at most eight stores of at most one scratch pad's
// logical capacity in all, and a store that does not fit displaces smaller
// spares or, smaller than all of them, is dropped.
func TestSPMSparesBestFitAndCapped(t *testing.T) {
	var a *SPMAllocator
	alloc := func(name string, n int) *float32 {
		t.Helper()
		b, err := a.Alloc(name, n)
		if err != nil {
			t.Fatal(err)
		}
		return &b.Data[0]
	}
	spares := func() (map[*float32]int, int) {
		stores, total := map[*float32]int{}, 0
		for _, s := range a.spare {
			if s != nil {
				stores[&s[:1][0]], total = cap(s), total+cap(s)
			}
		}
		return stores, total
	}

	a = NewSPMAllocator()
	alloc("a", 100)
	alloc("b", 400)
	s200 := alloc("c", 200)
	a.Reset()
	if alloc("p", 150) != s200 {
		t.Fatal("Alloc(150) did not take the 200-float spare, the smallest that holds it")
	}

	a = NewSPMAllocator()
	fillSlots := func() {
		for i := range len(a.spare) {
			alloc(string(rune('a'+i)), 1000)
		}
	}
	fillSlots()
	a.Reset()
	fillSlots() // takes every spare back
	small := alloc("small", 10)
	a.Reset()
	if st, _ := spares(); len(st) != len(a.spare) || st[small] != 0 {
		t.Fatalf("full slots and a smaller store: spares %v, want the %d 1000-float stores", st, len(a.spare))
	}
	fillSlots()
	large := alloc("large", 2000)
	a.Reset()
	if st, _ := spares(); len(st) != len(a.spare) || st[large] != 2000 {
		t.Fatalf("full slots and a larger store: spares %v, want it beside %d 1000-float stores", st, len(a.spare)-1)
	}

	a = NewSPMAllocator()
	alloc("a", 100)
	s200 = alloc("b", 200)
	a.Reset()
	big := alloc("big", spareFloats-200) // no spare holds it: a new store
	a.Reset()
	st, total := spares()
	if total > spareFloats || len(st) != 2 || st[big] != spareFloats-200 || st[s200] != 200 {
		t.Fatalf("spares %v hold %d floats, want the big store beside the 200-float one, at most %d", st, total, spareFloats)
	}
}
