package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricValue is one measured metric on one workload.
type metricValue struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	// Samples is how many timed operations (or set-ups) stand behind the
	// value; Q1 and Q3 are their quartiles where the value is a median.
	Samples int      `json:"samples"`
	Q1      float64  `json:"q1,omitempty"`
	Q3      float64  `json:"q3,omitempty"`
	Bound   *float64 `json:"bound,omitempty"`
}

// resultFile is the one JSON document a suite run writes.
type resultFile struct {
	Seed       uint64        `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Quick      bool          `json:"quick,omitempty"`
	Nproc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	GitHead    string        `json:"git_head"`
	EndToEnd   []metricValue `json:"end_to_end"`
	PerLayer   []metricValue `json:"per_layer"`
}

func newResultFile(e *env, seconds float64) *resultFile {
	head := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	return &resultFile{
		Seed: e.seed, Seconds: seconds, Quick: e.quick,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitHead: head,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values lines the declared metrics of one family up with what one
// workload's run measured. An end-to-end metric must have been measured; a
// per-layer metric no pass set reads 0 (its layer is idle on this
// workload). A measured name the declaration does not list is an error
// either way.
func values(decls []metricDecl, workload string, vals map[string]float64, traced bool,
	samples map[string][]float64) ([]metricValue, error) {
	declared := map[string]bool{}
	var out []metricValue
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := vals[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", workload, d.Name)
		}
		mv := metricValue{Name: d.Name, Unit: d.Unit, Workload: workload, Value: v, Samples: 1, Bound: d.Bound}
		if s := samples[d.Name]; len(s) > 0 {
			mv.Samples = len(s)
			mv.Q1, _, mv.Q3 = quartiles(s)
		}
		out = append(out, mv)
	}
	for name := range vals {
		if !declared[name] {
			return nil, fmt.Errorf("%s: metric %s is measured but BENCHMARK.json does not list it", workload, name)
		}
	}
	return out, nil
}

func printValues(w io.Writer, vs []metricValue) {
	for _, v := range vs {
		line := fmt.Sprintf("%-14s %-38s %16.6g %-8s", v.Workload, v.Name, v.Value, v.Unit)
		if v.Samples > 1 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", v.Samples, v.Q1, v.Q3)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// compareResults reports every end-to-end metric of b that is worse than
// in a by more than the metric's own bound, and prints both sides with
// their quartiles so the spread is visible next to the difference.
func compareResults(w io.Writer, decl *declaration, a, b *resultFile) (regressions int) {
	better := map[string]string{}
	for _, d := range decl.EndToEnd {
		better[d.Name] = d.Better
	}
	first := map[string]metricValue{}
	for _, v := range a.EndToEnd {
		first[v.Workload+"/"+v.Name] = v
	}
	for _, vb := range b.EndToEnd {
		va, ok := first[vb.Workload+"/"+vb.Name]
		if !ok || vb.Bound == nil {
			continue
		}
		worse := ratio(vb.Value-va.Value, va.Value)
		if better[vb.Name] == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > *vb.Bound {
			verdict = "WORSE"
			regressions++
		}
		fmt.Fprintf(w, "%-14s %-16s %14.6g [%.6g, %.6g] -> %14.6g [%.6g, %.6g] %-6s %+7.2f%% (bound %.0f%%) %s\n",
			vb.Workload, vb.Name, va.Value, va.Q1, va.Q3, vb.Value, vb.Q1, vb.Q3, vb.Unit,
			100*worse, 100**vb.Bound, verdict)
	}
	return regressions
}

// traceFile is one element of the array -trace-out holds: the spans of one
// traced workload.
type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// traceWriter streams the trace file, one element per traced workload,
// written as soon as that workload's run ends. Spans must not stay live
// while the next workload is timed: the program's own live heap is a
// fraction of a megabyte, so a few megabytes of retained spans halve the
// collector's frequency and shorten every host time measured after them.
type traceWriter struct {
	f *os.File
	n int
}

func newTraceWriter(path string) (*traceWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &traceWriter{f: f}, nil
}

func (t *traceWriter) add(workload string, spans []span) error {
	sep := ",\n"
	if t.n == 0 {
		sep = "[\n"
	}
	t.n++
	if _, err := io.WriteString(t.f, sep); err != nil {
		return err
	}
	return json.NewEncoder(t.f).Encode(traceFile{Workload: workload, Spans: spans})
}

// close ends the array and closes the file; a second call is a no-op, so
// it can be deferred for the error paths and checked on the success path.
func (t *traceWriter) close() error {
	if t.f == nil {
		return nil
	}
	f := t.f
	t.f = nil
	end := "]\n"
	if t.n == 0 {
		end = "[]\n"
	}
	if _, err := io.WriteString(f, end); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
