// Package trace records simulated execution timelines: every GEMM call,
// transform and DMA transfer with its start time and duration on the
// machine clock. Users diagnose schedules with it — above all whether
// double buffering actually hides the DMA channel behind the compute
// channel (the effect Fig. 10 measures).
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies timeline events.
type Kind string

// Event kinds.
const (
	KindGemm      Kind = "gemm"
	KindDMA       Kind = "dma"
	KindTransform Kind = "transform"
	KindWait      Kind = "wait"
	// KindComm marks modeled cross-core-group communication (gathers,
	// pipeline stage hand-offs) on a fleet timeline.
	KindComm Kind = "comm"
)

// Event is one interval on the timeline.
type Event struct {
	Kind  Kind
	Label string
	Start float64 // seconds on the simulated clock
	Dur   float64
	// Group is the simulated core group the event executed on. Single-
	// machine timelines leave it 0; fleet timelines stamp it via
	// MergeGroup/AddGroupArgs so parallel groups keep distinct rows in the
	// Gantt and distinct process tracks in the Chrome export.
	Group int
	// Args is optional span metadata (operator name, layer index, selected
	// strategy, ...) carried into the Chrome-trace export. Nil for plain
	// events; read-only once recorded, since Tag and MergeGroup share one
	// map between many events.
	Args map[string]string
}

// Log accumulates events of one run.
type Log struct {
	Events []Event
}

// Add appends an event on group 0.
func (l *Log) Add(kind Kind, label string, start, dur float64) {
	l.Events = append(l.Events, Event{Kind: kind, Label: label, Start: start, Dur: dur})
}

// AddGroupArgs appends a group event carrying Args metadata. Comm events
// use it to label their source and destination groups ("src"/"dst"), which
// the fleet Gantt renders as a legend under the rows.
func (l *Log) AddGroupArgs(group int, kind Kind, label string, start, dur float64, args map[string]string) {
	l.Events = append(l.Events, Event{Kind: kind, Label: label, Start: start, Dur: dur, Group: group, Args: args})
}

// Tag stamps args onto Events[from:]. An event without Args shares the
// args map itself — the inference runtime stamps every event of one layer
// (operator name, layer index, strategy) with one map. An event with its
// own Args gets a fresh copy holding both, its existing keys winning, so
// Tag never writes into a map it did not create.
func (l *Log) Tag(from int, args map[string]string) {
	for i := range l.Events[from:] {
		ev := &l.Events[from+i]
		if len(ev.Args) == 0 {
			ev.Args = args
			continue
		}
		merged := make(map[string]string, len(ev.Args)+len(args))
		for k, v := range args {
			merged[k] = v
		}
		for k, v := range ev.Args {
			merged[k] = v
		}
		ev.Args = merged
	}
}

// MergeGroup appends copies of the given logs' events, each moved by
// offset on the time axis and stamped with the given core-group index
// (overriding whatever group the source carried); kinds, labels,
// durations and Args are untouched. A fleet timeline is built by
// MergeGroup-ing each group's machine-local log at its fleet-clock
// offset: events from different groups keep distinct rows in the Gantt
// and distinct process tracks in the Chrome export, and because the shift
// is rigid, intra-group structure — in particular the DMA/compute overlap
// double buffering creates — survives the merge.
func (l *Log) MergeGroup(group int, offset float64, others ...*Log) {
	for _, o := range others {
		if o == nil {
			continue
		}
		for _, ev := range o.Events {
			ev.Start += offset
			ev.Group = group
			l.Events = append(l.Events, ev)
		}
	}
}

// Groups returns the number of distinct core-group rows of the timeline:
// max event group + 1 (1 for an empty or single-machine log).
func (l *Log) Groups() int {
	maxG := 0
	for _, ev := range l.Events {
		if ev.Group > maxG {
			maxG = ev.Group
		}
	}
	return maxG + 1
}

// spans returns the busy intervals of one kind on one core group, sorted
// by start, with overlapping intervals merged into their union. Intervals
// that only touch are joined when join is set: BusyTime joins them and
// Overlap intersects each piece. Both give the same sums up to rounding;
// these are the rules the pinned single-machine ratios were recorded with.
func (l *Log) spans(group int, kind Kind, join bool) [][2]float64 {
	var out [][2]float64
	for _, ev := range l.Events {
		if ev.Group == group && ev.Kind == kind && ev.Dur > 0 {
			out = append(out, [2]float64{ev.Start, ev.Start + ev.Dur})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	n := 0
	for _, sp := range out {
		if n > 0 && (sp[0] < out[n-1][1] || join && sp[0] == out[n-1][1]) {
			out[n-1][1] = max(out[n-1][1], sp[1])
			continue
		}
		out[n] = sp
		n++
	}
	return out[:n]
}

// BusyTime returns the busy time of one kind: per core group the union of
// its events (overlapping events counted once), summed over the groups.
func (l *Log) BusyTime(kind Kind) float64 {
	total := 0.0
	for g := 0; g < l.Groups(); g++ {
		for _, sp := range l.spans(g, kind, true) {
			total += sp[1] - sp[0]
		}
	}
	return total
}

// Overlap returns the time during which both kinds were busy on the same
// core group, summed over the groups — the measure of how well
// prefetching hides memory latency. Work on one group never hides another
// group's DMA.
func (l *Log) Overlap(a, b Kind) float64 {
	total := 0.0
	for g := 0; g < l.Groups(); g++ {
		sa, sb := l.spans(g, a, false), l.spans(g, b, false)
		for i, j := 0, 0; i < len(sa) && j < len(sb); {
			if hi, lo := min(sa[i][1], sb[j][1]), max(sa[i][0], sb[j][0]); hi > lo {
				total += hi - lo
			}
			if sa[i][1] < sb[j][1] {
				i++
			} else {
				j++
			}
		}
	}
	return total
}

// End returns the latest event end time.
func (l *Log) End() float64 {
	end := 0.0
	for _, ev := range l.Events {
		if t := ev.Start + ev.Dur; t > end {
			end = t
		}
	}
	return end
}

// Summary renders per-kind busy times and the compute/DMA overlap ratio.
// A busy percentage is of the timeline's length on every core group.
func (l *Log) Summary() string {
	var b strings.Builder
	end := l.End()
	span := end * float64(l.Groups())
	fmt.Fprintf(&b, "timeline: %d events over %.4g ms\n", len(l.Events), end*1e3)
	for _, k := range []Kind{KindGemm, KindTransform, KindDMA, KindWait} {
		busy := l.BusyTime(k)
		if busy == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s busy %.4g ms (%.0f%%)\n", k, busy*1e3, busy/span*100)
	}
	dma := l.BusyTime(KindDMA)
	if dma > 0 {
		ov := l.Overlap(KindGemm, KindDMA)
		fmt.Fprintf(&b, "  dma hidden behind compute: %.0f%%\n", ov/dma*100)
	}
	return b.String()
}

// ganttKinds is the row/precedence order of the fleet Gantt: later kinds
// draw over earlier ones in per-group rows, so compute ends up on top.
var ganttKinds = []Kind{KindWait, KindComm, KindDMA, KindTransform, KindGemm}

// Gantt renders a coarse text Gantt chart (width columns). A single-
// machine timeline gets one row per machine channel (gemm, transform,
// dma, wait); a fleet timeline (events on more than one group) gets one
// row per core group, each cell marked with the dominant channel active
// there (G > T > D > C > W in precedence).
func (l *Log) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	end := l.End()
	if end == 0 {
		return "(empty timeline)\n"
	}
	var b strings.Builder
	if groups := l.Groups(); groups > 1 {
		// The fleet view: one row per core group on the shared fleet clock,
		// so data-parallel overlap and pipeline fill/drain bubbles are
		// visible at a glance.
		for g := 0; g < groups; g++ {
			row := []byte(strings.Repeat(".", width))
			for _, k := range ganttKinds {
				l.paint(row, g, k, end)
			}
			fmt.Fprintf(&b, "%-10s |%s|\n", fmt.Sprintf("group%d", g), row)
		}
		b.WriteString(l.commLegend())
		return b.String()
	}
	for _, k := range []Kind{KindGemm, KindTransform, KindDMA, KindComm, KindWait} {
		row := []byte(strings.Repeat(".", width))
		if !l.paint(row, 0, k, end) && (k == KindWait || k == KindComm) {
			continue // most schedules never stall; keep the chart compact
		}
		fmt.Fprintf(&b, "%-10s |%s|\n", k, row)
	}
	return b.String()
}

// paint marks the cells of row that group's events of one kind cover, on
// a timeline of length end, and reports whether it marked any.
func (l *Log) paint(row []byte, group int, k Kind, end float64) bool {
	mark, width, drew := byte(strings.ToUpper(string(k))[0]), len(row), false
	for _, ev := range l.Events {
		if ev.Group != group || ev.Kind != k || ev.Dur <= 0 {
			// A zero-duration event at the timeline end would index one
			// past the row; instants carry no width anyway.
			continue
		}
		lo := min(max(int(ev.Start/end*float64(width)), 0), width-1)
		hi := min(int((ev.Start+ev.Dur)/end*float64(width)), width-1)
		for i := lo; i <= hi; i++ {
			row[i] = mark
		}
		drew = true
	}
	return drew
}

// commLegend lists the comm events under the fleet rows with their
// source→destination groups, so concurrent collectives in the same window
// stay distinguishable. Events sharing a label and start time (a collective
// stamped on every participating group) collapse to one line with the
// union of their sources.
func (l *Log) commLegend() string {
	type entry struct {
		label      string
		start, dur float64
		srcs       []string
		dst        string
	}
	var order []*entry
	index := map[string]*entry{}
	for _, ev := range l.Events {
		if ev.Kind != KindComm {
			continue
		}
		key := fmt.Sprintf("%s@%.9g", ev.Label, ev.Start)
		en := index[key]
		if en == nil {
			en = &entry{label: ev.Label, start: ev.Start, dur: ev.Dur, dst: ev.Args["dst"]}
			index[key] = en
			order = append(order, en)
		}
		src := ev.Args["src"]
		if src == "" {
			src = fmt.Sprintf("group%d", ev.Group)
		}
		dup := false
		for _, s := range en.srcs {
			if s == src {
				dup = true
				break
			}
		}
		if !dup {
			en.srcs = append(en.srcs, src)
		}
	}
	if len(order) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("comm:\n")
	for _, en := range order {
		sort.Strings(en.srcs)
		dst := en.dst
		if dst == "" {
			dst = "?"
		}
		fmt.Fprintf(&b, "  %-24s %s -> %s  @%.4g+%.4g ms\n",
			en.label, strings.Join(en.srcs, ","), dst, en.start*1e3, en.dur*1e3)
	}
	return b.String()
}
