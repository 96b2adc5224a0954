package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// LayerCost is one layer's share of a workload's machine seconds, recorded
// in the snapshot so a later regression can be attributed to the exact
// layer (and to a schedule change on that layer) rather than just to the
// workload total.
type LayerCost struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind,omitempty"`
	Seconds  float64 `json:"seconds"`
	Strategy string  `json:"strategy,omitempty"`
}

// LayerDelta is the per-layer comparison between two snapshots of the
// same workload.
type LayerDelta struct {
	Name       string
	Kind       string
	OldSeconds float64
	NewSeconds float64
	// Delta is new-old in seconds: positive means the layer got slower.
	Delta       float64
	OldStrategy string
	NewStrategy string
	// ScheduleChanged marks a layer whose chosen schedule differs between
	// the snapshots — the first suspect when its seconds moved.
	ScheduleChanged bool
	// Added/Removed mark layers present in only one snapshot.
	Added, Removed bool
}

// PhaseDelta is one lifecycle phase's contribution to a workload delta, in
// deterministic machine seconds (exec, comm).
type PhaseDelta struct {
	Phase string
	Old   float64
	New   float64
	Delta float64
}

// WorkloadAttribution explains one workload's delta between snapshots:
// total, then per phase, then per layer, each sorted worst-first.
type WorkloadAttribution struct {
	Name       string
	OldSeconds float64
	NewSeconds float64
	Delta      float64
	DeltaPct   float64
	// Phases is sorted by |Delta| descending.
	Phases []PhaseDelta
	// Layers is sorted by |Delta| descending.
	Layers []LayerDelta
	// MissingOld/MissingNew mark workloads present in only one snapshot.
	MissingOld, MissingNew bool
}

// TopPhase returns the phase with the largest absolute delta, or "" when
// none moved.
func (w *WorkloadAttribution) TopPhase() string {
	if len(w.Phases) == 0 || w.Phases[0].Delta == 0 {
		return ""
	}
	return w.Phases[0].Phase
}

// TopLayer returns the layer with the largest absolute delta, or nil.
func (w *WorkloadAttribution) TopLayer() *LayerDelta {
	if len(w.Layers) == 0 || w.Layers[0].Delta == 0 {
		return nil
	}
	return &w.Layers[0]
}

// Attribution is the differential comparison of two snapshots, workload
// by workload, worst regression first.
type Attribution struct {
	OldName string
	NewName string
	// Workloads is sorted by Delta descending (largest regression first).
	Workloads []WorkloadAttribution
}

// Attribute explains where the time went between two snapshots: for every
// workload in either snapshot, the machine-seconds delta, its split across
// lifecycle phases (exec vs comm machine seconds), and its split across
// layers including schedule changes.
// Identical snapshots attribute to zero everywhere — the obs-check gate.
func Attribute(old, cur *Snapshot) *Attribution {
	a := &Attribution{OldName: old.Name, NewName: cur.Name}
	seen := map[string]bool{}
	for _, ow := range old.Workloads {
		seen[ow.Name] = true
		wa := attributeWorkload(&ow, cur.Lookup(ow.Name))
		a.Workloads = append(a.Workloads, wa)
	}
	for _, cw := range cur.Workloads {
		if !seen[cw.Name] {
			a.Workloads = append(a.Workloads, attributeWorkload(nil, &cw))
		}
	}
	sort.SliceStable(a.Workloads, func(i, j int) bool {
		return a.Workloads[i].Delta > a.Workloads[j].Delta
	})
	return a
}

func attributeWorkload(old, cur *Workload) WorkloadAttribution {
	wa := WorkloadAttribution{}
	o, c := Workload{}, Workload{}
	switch {
	case old == nil:
		wa.Name, wa.MissingOld = cur.Name, true
		c = *cur
	case cur == nil:
		wa.Name, wa.MissingNew = old.Name, true
		o = *old
	default:
		wa.Name = old.Name
		o, c = *old, *cur
	}
	wa.OldSeconds, wa.NewSeconds = o.MachineSeconds, c.MachineSeconds
	wa.Delta = c.MachineSeconds - o.MachineSeconds
	if o.MachineSeconds > 0 {
		wa.DeltaPct = wa.Delta / o.MachineSeconds * 100
	}
	wa.Phases = attributePhases(o, c)
	wa.Layers = attributeLayers(o.Layers, c.Layers)
	return wa
}

// attributePhases splits the delta across the request lifecycle. Exec and
// comm are deterministic machine seconds; when a snapshot predates the
// ExecSeconds field, exec falls back to total minus comm so old baselines
// still attribute.
func attributePhases(o, c Workload) []PhaseDelta {
	execOf := func(w Workload) float64 {
		if w.ExecSeconds > 0 {
			return w.ExecSeconds
		}
		return w.MachineSeconds - w.CommSeconds
	}
	phases := []PhaseDelta{
		{Phase: "exec", Old: execOf(o), New: execOf(c)},
		{Phase: "comm", Old: o.CommSeconds, New: c.CommSeconds},
	}
	for i := range phases {
		phases[i].Delta = phases[i].New - phases[i].Old
	}
	sort.SliceStable(phases, func(i, j int) bool {
		return math.Abs(phases[i].Delta) > math.Abs(phases[j].Delta)
	})
	return phases
}

// attributeLayers matches layers by name. Duplicate names (repeated conv
// shapes in a net) are matched positionally within the name.
func attributeLayers(old, cur []LayerCost) []LayerDelta {
	type slot struct{ costs []LayerCost }
	index := func(layers []LayerCost) map[string]*slot {
		m := map[string]*slot{}
		for _, l := range layers {
			s := m[l.Name]
			if s == nil {
				s = &slot{}
				m[l.Name] = s
			}
			s.costs = append(s.costs, l)
		}
		return m
	}
	om := index(old)
	var out []LayerDelta
	seen := map[string]bool{}
	matched := map[string]int{}
	for _, cl := range cur {
		d := LayerDelta{Name: cl.Name, Kind: cl.Kind,
			NewSeconds: cl.Seconds, NewStrategy: cl.Strategy}
		if s, ok := om[cl.Name]; ok && matched[cl.Name] < len(s.costs) {
			ol := s.costs[matched[cl.Name]]
			matched[cl.Name]++
			d.OldSeconds, d.OldStrategy = ol.Seconds, ol.Strategy
			d.ScheduleChanged = ol.Strategy != cl.Strategy
		} else {
			d.Added = true
		}
		d.Delta = d.NewSeconds - d.OldSeconds
		seen[cl.Name] = true
		out = append(out, d)
	}
	for name, s := range om {
		for i := matched[name]; i < len(s.costs); i++ {
			ol := s.costs[i]
			out = append(out, LayerDelta{Name: ol.Name, Kind: ol.Kind,
				OldSeconds: ol.Seconds, OldStrategy: ol.Strategy,
				Delta: -ol.Seconds, Removed: true})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].Delta) > math.Abs(out[j].Delta)
	})
	return out
}

// Zero reports whether nothing moved: every workload's machine seconds,
// phase split, and layer costs are identical between the snapshots. The
// obs-check gate runs bench-diff on one snapshot against itself and
// requires Zero.
func (a *Attribution) Zero() bool {
	for _, w := range a.Workloads {
		if w.Delta != 0 || w.MissingOld || w.MissingNew {
			return false
		}
		for _, p := range w.Phases {
			if p.Delta != 0 {
				return false
			}
		}
		for _, l := range w.Layers {
			if l.Delta != 0 || l.ScheduleChanged || l.Added || l.Removed {
				return false
			}
		}
	}
	return true
}

// Top returns the workload with the largest regression, or nil when the
// snapshots are identical.
func (a *Attribution) Top() *WorkloadAttribution {
	if len(a.Workloads) == 0 || a.Workloads[0].Delta <= 0 {
		return nil
	}
	return &a.Workloads[0]
}

// String renders the attribution report: one block per workload whose
// numbers moved (worst first), each naming the dominant phase and the
// top layers with their schedule changes. Identical snapshots render a
// single "no differences" line.
func (a *Attribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench-diff: %s -> %s\n", orUnnamed(a.OldName), orUnnamed(a.NewName))
	if a.Zero() {
		b.WriteString("  no differences: snapshots attribute to zero everywhere\n")
		return b.String()
	}
	const maxLayers = 5
	for _, w := range a.Workloads {
		switch {
		case w.MissingOld:
			fmt.Fprintf(&b, "%s: new workload (%.6fs), not in old snapshot\n", w.Name, w.NewSeconds)
			continue
		case w.MissingNew:
			fmt.Fprintf(&b, "%s: missing from new snapshot (was %.6fs)\n", w.Name, w.OldSeconds)
			continue
		case w.Delta == 0 && !layersMoved(w.Layers):
			continue
		}
		fmt.Fprintf(&b, "%s: %.6fs -> %.6fs (%+.2f%%)\n",
			w.Name, w.OldSeconds, w.NewSeconds, w.DeltaPct)
		if phase := w.TopPhase(); phase != "" {
			fmt.Fprintf(&b, "  dominant phase: %s\n", phase)
		}
		for _, p := range w.Phases {
			if p.Delta == 0 {
				continue
			}
			fmt.Fprintf(&b, "  phase %-9s %12.6f -> %12.6f s (%+.6f)\n",
				p.Phase, p.Old, p.New, p.Delta)
		}
		shown := 0
		for _, l := range w.Layers {
			if l.Delta == 0 && !l.ScheduleChanged {
				continue
			}
			if shown >= maxLayers {
				fmt.Fprintf(&b, "  ... more layers moved (showing top %d)\n", maxLayers)
				break
			}
			shown++
			note := ""
			switch {
			case l.Added:
				note = "  [new layer]"
			case l.Removed:
				note = "  [removed]"
			case l.ScheduleChanged:
				note = fmt.Sprintf("  [schedule: %s -> %s]", orUnnamed(l.OldStrategy), orUnnamed(l.NewStrategy))
			}
			fmt.Fprintf(&b, "  layer %-24s %10.6fs -> %10.6fs (%+.6f)%s\n",
				l.Name, l.OldSeconds, l.NewSeconds, l.Delta, note)
		}
	}
	return b.String()
}

func layersMoved(layers []LayerDelta) bool {
	for _, l := range layers {
		if l.Delta != 0 || l.ScheduleChanged {
			return true
		}
	}
	return false
}

func orUnnamed(s string) string {
	if s == "" {
		return "(unnamed)"
	}
	return s
}
