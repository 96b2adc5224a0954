package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declaration is BENCHMARK.json: the one place the workload and metric
// names, units and bounds are written down. The harness reads it at start
// and refuses to emit a name it does not list or to finish a run with a
// listed name missing, so the file and the program cannot drift apart.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics carry none.
	Bound *float64 `json:"bound,omitempty"`
}

// loadDeclaration reads BENCHMARK.json from the repository root: the
// working directory of `go run ./benchmark`, or its parent under `go test`.
func loadDeclaration() (*declaration, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w (run from the repository root)", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func (d *declaration) metrics(traced bool) []metricDecl {
	if traced {
		return d.PerLayer
	}
	return d.EndToEnd
}

func (d *declaration) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
