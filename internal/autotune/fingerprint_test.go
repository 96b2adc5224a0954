package autotune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/search"
	"swatop/internal/tensor"
)

var updateFingerprint = flag.Bool("update-fingerprint", false,
	"rewrite testdata/tune_fingerprint.json from the current code")

// boomOp panics inside Compile for every strategy whose text hashes odd —
// a failure that belongs to the candidate, not to the call order, so which
// candidates fail is the same for every worker count.
type boomOp struct{ Operator }

func (o boomOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	if hash32(st.String())%2 == 1 {
		panic("boom: " + st.String())
	}
	return o.Operator.Compile(st)
}

// tuneFP is everything observable about one tuning run that does not
// depend on the host: floats are IEEE bit patterns, events a sorted
// multiset (arrival order is worker-dependent).
type tuneFP struct {
	Strategy  string `json:"strategy,omitempty"`
	Program   string `json:"program,omitempty"` // fnv64a of ir.Print
	Predicted string `json:"predicted,omitempty"`
	Measured  string `json:"measured,omitempty"`
	Space     int    `json:"space"`
	Valid     int    `json:"valid"`
	Failed    int    `json:"failed"`
	Machine   string `json:"machine"`
	Proposed  int    `json:"proposed"`
	MeasuredN int    `json:"measured_n"`
	Rounds    int    `json:"rounds"`
	Converged bool   `json:"converged"`
	Error     string `json:"error,omitempty"`

	Counters map[string]int64  `json:"counters,omitempty"`
	Gauges   map[string]string `json:"gauges,omitempty"`
	// EventCounts is every event kind with how often it fired; Events the
	// full text of the tuner's own low-volume kinds; CandidateEvents a hash
	// over the sorted candidate.start/candidate.finish lines.
	EventCounts     map[string]int `json:"event_counts,omitempty"`
	Events          []string       `json:"events,omitempty"`
	CandidateEvents string         `json:"candidate_events,omitempty"`
}

var failureCount = regexp.MustCompile(`\d+ candidate failures`)

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func fpOperator(t *testing.T, name string) Operator {
	t.Helper()
	if name == "gemm" {
		return smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	}
	op, err := conv.NewImplicitOp(tensor.ConvShape{B: 4, Ni: 32, No: 32, Ro: 8, Co: 8, Kr: 3, Kc: 3})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// eventLine renders an event as kind + fields sorted by key, so the text
// pins what was reported but not the order the fields were appended in.
func eventLine(e obsrv.Event) string {
	fs := make([]string, 0, len(e.Fields))
	for _, f := range e.Fields {
		fs = append(fs, f.Key+"="+f.Value)
	}
	sort.Strings(fs)
	return e.Kind + " " + strings.Join(fs, " ")
}

// fingerprintTune runs one (operator, tuner, workers, scenario) cell.
func fingerprintTune(t *testing.T, opName, tuner string, workers int, scenario string) tuneFP {
	t.Helper()
	op := fpOperator(t, opName)
	reg := metrics.NewRegistry()
	obs := obsrv.NewWithCapacity(1 << 16)
	opts := Options{Workers: workers, Metrics: reg, Observer: obs}
	if tuner == "evo" {
		opts.Searcher = &search.Evolutionary{}
		opts.SearchSeed = 7
	}
	switch scenario {
	case "faulty":
		// The walk measures only its finalists, one after the other, so every
		// second run may fail. The pools measure concurrently: a period of 11
		// keeps one candidate from drawing three failing calls in a row.
		nth := uint64(11)
		if tuner == "walk" {
			nth = 2
		}
		in := faults.New(3)
		in.FailEveryNth(faults.Measure, nth, faults.Transient(errors.New("flaky timer")))
		opts.Faults = in
		opts.Retry = Retry{Attempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	case "limit":
		op = boomOp{op}
		in := faults.New(9)
		in.PanicEveryNth(faults.Measure, 1, "every measurement panics")
		opts.Faults = in
		opts.MaxCandidateFailures = 2
	}
	var res Result
	var err error
	if tuner == "blackbox" {
		res, err = BlackBoxCtx(context.Background(), op, opts)
	} else {
		res, err = ModelBasedCtx(context.Background(), op, model(t), opts)
	}
	fp := tuneFP{
		Space: res.SpaceSize, Valid: res.Valid, Failed: res.FailedCandidates,
		Machine:  bits(res.MachineSeconds),
		Proposed: res.Proposed, MeasuredN: res.Measured, Rounds: res.Rounds, Converged: res.Converged,
	}
	if err != nil {
		fp.Error = err.Error()
	} else {
		h := fnv.New64a()
		h.Write([]byte(ir.Print(res.Best.Program)))
		fp.Strategy = res.Best.Strategy.String()
		fp.Program = fmt.Sprintf("%016x", h.Sum64())
		fp.Predicted, fp.Measured = bits(res.Best.Predicted), bits(res.Best.Measured)
	}
	if scenario == "limit" && workers > 1 {
		// Which failure trips the limit, how many had arrived by then and how
		// much ran before the pool noticed is arrival order: pin the error
		// without its count and the candidate it names.
		if i := strings.Index(fp.Error, ", last: "); i >= 0 {
			fp.Error = failureCount.ReplaceAllString(fp.Error[:i], "N candidate failures")
		}
		return fp
	}
	snap := reg.Snapshot()
	fp.Counters = map[string]int64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "autotune_") || strings.HasPrefix(name, "search_") || strings.HasPrefix(name, "exec_") {
			fp.Counters[name] = v
		}
	}
	fp.Gauges = map[string]string{}
	for name, v := range snap.Gauges {
		// Wall clocks and slept backoff are host time.
		if (strings.HasPrefix(name, "autotune_") || strings.HasPrefix(name, "search_")) &&
			!strings.Contains(name, "wall") && !strings.Contains(name, "backoff") {
			fp.Gauges[name] = bits(v)
		}
	}
	fp.EventCounts = map[string]int{}
	var cand []string
	for _, e := range obs.Flight().Snapshot() {
		fp.EventCounts[e.Kind]++
		switch {
		case e.Kind == "candidate.start" || e.Kind == "candidate.finish":
			cand = append(cand, eventLine(e))
		case e.Kind == "candidate.retry" || strings.HasPrefix(e.Kind, "exec."):
			// Which candidate drew an injected fault is arrival order.
		default:
			fp.Events = append(fp.Events, eventLine(e))
		}
	}
	sort.Strings(fp.Events)
	sort.Strings(cand)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(cand, "\n")))
	fp.CandidateEvents = fmt.Sprintf("%016x", h.Sum64())
	return fp
}

// TestTuneFingerprint pins the three tuners — exhaustive walk, black box,
// evolutionary search — over two operators, two worker counts and three
// scenarios (clean, transient faults absorbed by retries, failure limit
// exceeded) against testdata/tune_fingerprint.json, generated from the code
// before the drivers were merged into one candidate loop.
func TestTuneFingerprint(t *testing.T) {
	got := map[string]tuneFP{}
	for _, opName := range []string{"gemm", "conv"} {
		for _, tuner := range []string{"walk", "blackbox", "evo"} {
			for _, workers := range []int{1, 4} {
				for _, scenario := range []string{"clean", "faulty", "limit"} {
					key := fmt.Sprintf("%s/%s/w%d/%s", opName, tuner, workers, scenario)
					got[key] = fingerprintTune(t, opName, tuner, workers, scenario)
				}
			}
		}
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	const path = "testdata/tune_fingerprint.json"
	if *updateFingerprint {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-fingerprint)", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	var wantFP map[string]tuneFP
	if err := json.Unmarshal(want, &wantFP); err != nil {
		t.Fatal(err)
	}
	for key, g := range got {
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(wantFP[key])
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s moved:\n got %s\nwant %s", key, gj, wj)
		}
	}
	t.Fatal("tuning fingerprint differs from testdata/tune_fingerprint.json")
}
