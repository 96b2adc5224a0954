// Package bench defines the performance-trajectory snapshot format:
// a small JSON document recording, for a fixed set of canonical
// workloads, the simulated machine seconds, the tuning effort spent
// reaching them, and the achieved GFLOPS. Snapshots written by
// `swbench -bench-out` at one commit are compared by
// `swbench -bench-against` at a later one, turning "did this PR make
// the generated schedules worse?" into an exit code.
//
// Machine seconds are fully deterministic (the simulator is analytic
// and tuning is worker-count independent), so the comparison tolerance
// exists only to absorb intentional search-space changes, not noise.
// Wall seconds and candidate counts are recorded for context and never
// gate the comparison.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// SchemaVersion is bumped when the snapshot layout changes
// incompatibly; Load rejects snapshots from a different schema.
const SchemaVersion = 1

// DefaultTolerancePct is the allowed machine-seconds regression before
// Compare flags a workload. Deterministic numbers would justify 0, but
// a small band keeps intentional heuristic tweaks from tripping the
// gate on rounding-level shifts.
const DefaultTolerancePct = 1.0

// Workload is one canonical benchmark point.
type Workload struct {
	Name string `json:"name"`
	// MachineSeconds is the simulated execution time of the tuned
	// result — the number the comparison gates on.
	MachineSeconds float64 `json:"machine_seconds"`
	// WallSeconds is host time spent producing it (tuning + search);
	// informational only, it varies with the machine running the tool.
	WallSeconds float64 `json:"wall_seconds"`
	// Candidates is the number of schedule candidates measured.
	Candidates int64 `json:"candidates"`
	// GFLOPS is the achieved simulated throughput.
	GFLOPS float64 `json:"gflops"`
	// InferencesPerSec is the end-to-end inference throughput of network
	// workloads (batch over machine seconds) — the scale-out headline
	// number. Zero for kernel workloads. Informational like GFLOPS: the
	// gate compares machine seconds, which for a fixed batch is the same
	// quantity inverted.
	InferencesPerSec float64 `json:"inferences_per_sec,omitempty"`
	// SpacePoints is the total size of the schedule spaces walked, when
	// recorded; with Candidates it makes budgeted-search rows legible
	// (candidates/space = coverage). Zero on rows from exhaustive runs
	// predating the field.
	SpacePoints int64 `json:"space_points,omitempty"`
	// CoveragePct is 100*Candidates/SpacePoints, recorded for budgeted
	// search rows. Informational: machine seconds carry the gate.
	CoveragePct float64 `json:"coverage_pct,omitempty"`
	// ExecSeconds and CommSeconds split the deterministic machine seconds
	// into layer execution vs cross-group communication; bench-diff uses
	// them to name the phase a regression lives in. Zero on rows from
	// snapshots predating the fields (diff falls back to total - comm).
	ExecSeconds float64 `json:"exec_seconds,omitempty"`
	CommSeconds float64 `json:"comm_seconds,omitempty"`
	// Layers records each layer's machine seconds and chosen schedule so
	// bench-diff can attribute a workload regression to the exact layer
	// and to a schedule change on it. Absent on kernel-only snapshots
	// predating the field.
	Layers []LayerCost `json:"layers,omitempty"`
}

// Snapshot is the full document written by -bench-out.
type Snapshot struct {
	Schema    int        `json:"schema"`
	Name      string     `json:"name"`
	GoVersion string     `json:"go_version"`
	CreatedAt string     `json:"created_at,omitempty"`
	Workloads []Workload `json:"workloads"`
}

// Lookup returns the named workload, or nil.
func (s *Snapshot) Lookup(name string) *Workload {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

// WriteFile writes the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write bench snapshot: %w", err)
	}
	return nil
}

// Load reads and validates a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load bench snapshot: %w", err)
	}
	// Strict: a field the schema has dropped is an error, not silently
	// ignored by every comparison made from the file.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("load bench snapshot %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("load bench snapshot %s: schema %d, want %d", path, s.Schema, SchemaVersion)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("load bench snapshot %s: no workloads", path)
	}
	return &s, nil
}

// Delta is the comparison result for one workload present in the
// baseline.
type Delta struct {
	Name        string
	BaseSeconds float64
	CurSeconds  float64
	// DeltaPct is (cur-base)/base*100: positive means slower.
	DeltaPct float64
	// Missing marks baseline workloads the current run did not produce
	// — treated as a regression (the gate must not silently shrink).
	Missing   bool
	Regressed bool
}

// Diff is the full comparison of a current snapshot against a baseline.
type Diff struct {
	TolerancePct float64
	Deltas       []Delta
}

// Compare checks every baseline workload against the current snapshot.
// Workloads only present in the current snapshot are ignored: adding
// coverage is never a regression.
func Compare(cur, base *Snapshot, tolerancePct float64) *Diff {
	d := &Diff{TolerancePct: tolerancePct}
	for _, bw := range base.Workloads {
		delta := Delta{Name: bw.Name, BaseSeconds: bw.MachineSeconds}
		cw := cur.Lookup(bw.Name)
		switch {
		case cw == nil:
			delta.Missing = true
			delta.Regressed = true
		case bw.MachineSeconds <= 0:
			// Degenerate baseline entry: any positive time regresses it.
			delta.CurSeconds = cw.MachineSeconds
			delta.Regressed = cw.MachineSeconds > 0
		default:
			delta.CurSeconds = cw.MachineSeconds
			delta.DeltaPct = (cw.MachineSeconds - bw.MachineSeconds) / bw.MachineSeconds * 100
			delta.Regressed = delta.DeltaPct > tolerancePct
		}
		d.Deltas = append(d.Deltas, delta)
	}
	sort.Slice(d.Deltas, func(i, j int) bool { return d.Deltas[i].Name < d.Deltas[j].Name })
	return d
}

// OK reports whether no workload regressed.
func (d *Diff) OK() bool {
	for _, delta := range d.Deltas {
		if delta.Regressed {
			return false
		}
	}
	return true
}

// Regressions lists the failing workload names.
func (d *Diff) Regressions() []string {
	var out []string
	for _, delta := range d.Deltas {
		if delta.Regressed {
			out = append(out, delta.Name)
		}
	}
	return out
}

// String renders the comparison as an aligned report, one line per
// baseline workload.
func (d *Diff) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %14s %14s %9s\n", "workload", "baseline ms", "current ms", "delta")
	for _, delta := range d.Deltas {
		mark := ""
		if delta.Regressed {
			mark = "  REGRESSED"
		}
		if delta.Missing {
			fmt.Fprintf(&b, "%-16s %14.4f %14s %9s%s\n",
				delta.Name, delta.BaseSeconds*1e3, "missing", "", mark)
			continue
		}
		fmt.Fprintf(&b, "%-16s %14.4f %14.4f %+8.2f%%%s\n",
			delta.Name, delta.BaseSeconds*1e3, delta.CurSeconds*1e3, delta.DeltaPct, mark)
	}
	return b.String()
}
