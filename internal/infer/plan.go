package infer

import "swatop/internal/graph"

// Plan is the engine's main-memory buffer-reuse plan for one network. The
// sequential graphs the runtime executes alternate between two activation
// arenas: the tensor produced by node i lives in arena i%2, is read by node
// i+1 (which writes the other arena), and its storage is recycled when node
// i+2 produces into the same slot. One layer's output therefore feeds the
// next without any copy or re-binding, and the activation footprint of the
// whole network collapses to the two largest adjacent feature maps instead
// of the sum of all of them.
//
// Parameters, the graph input and the graph output never enter the arenas:
// they must survive the whole run. An activation whose last reader runs
// later than the node after its producer would be clobbered by the
// recycling rule, so the planner pins it to dedicated storage instead —
// the safety valve that keeps the plan correct for any valid graph, not
// just straight chains.
type Plan struct {
	// Slot maps each activation tensor to its arena (0 or 1), or -1 for
	// dedicated storage. Parameters and the graph input/output do not
	// appear.
	Slot map[string]int
	// ArenaElems is the element capacity of each arena: the largest
	// tensor assigned to that slot.
	ArenaElems [2]int
	// DedicatedBytes is the storage pinned outside the arenas for
	// long-lived activations.
	DedicatedBytes int64
	// IOBytes is the graph input + output storage.
	IOBytes int64
	// NaiveBytes is what the activations would occupy without reuse (every
	// tensor dedicated) — the denominator of the reuse win.
	NaiveBytes int64
}

// ArenaBytes is the total float32 storage of both arenas.
func (p Plan) ArenaBytes() int64 {
	return 4 * (int64(p.ArenaElems[0]) + int64(p.ArenaElems[1]))
}

// PeakActivationBytes is the planned activation footprint: both arenas plus
// any pinned tensors.
func (p Plan) PeakActivationBytes() int64 {
	return p.ArenaBytes() + p.DedicatedBytes
}

// planBuffers computes the ping-pong assignment for a validated graph.
func planBuffers(g *graph.Graph) Plan {
	nodes := g.Topo()
	produced := map[string]int{} // tensor -> producing node position
	lastUse := map[string]int{}  // tensor -> last reading node position
	for i, n := range nodes {
		produced[n.Out] = i
		for _, in := range n.In {
			lastUse[in] = i
		}
	}
	p := Plan{Slot: map[string]int{}}
	for _, t := range g.Tensors() {
		switch {
		case t.Param: // parameters are not activations
		case t.Name == g.Input || t.Name == g.Output:
			p.IOBytes += t.Bytes()
		default:
			p.NaiveBytes += t.Bytes()
			i := produced[t.Name]
			slot := i % 2
			// Arena i%2 is recycled when node i+2 produces into it; a
			// reader after node i+1 would see the successor's data.
			if lastUse[t.Name] > i+1 {
				slot = -1
			}
			p.Slot[t.Name] = slot
			if slot < 0 {
				p.DedicatedBytes += t.Bytes()
				continue
			}
			if elems := int(t.Bytes() / 4); elems > p.ArenaElems[slot] {
				p.ArenaElems[slot] = elems
			}
		}
	}
	return p
}
