package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// HistogramSnapshot is the frozen state of one histogram. Counts has one
// more entry than Bounds: the last slot is the +Inf overflow bucket (kept
// out of Bounds so the snapshot stays JSON-serializable).
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, ready for JSON encoding
// (map keys marshal sorted, so the document is deterministic for
// deterministic values).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Help carries per-metric exposition help text (SetHelp overrides).
	// Excluded from JSON: it is descriptive, not measured data, and would
	// bloat every NetReport document.
	Help map[string]string `json:"-"`
}

// Snapshot copies the registry's current values. Nil-safe: a nil registry
// yields an empty snapshot. On a scoped view (Scope) only the metrics
// under the view's prefix are included, under their full (prefixed) names.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	b := r.base()
	inScope := func(name string) bool {
		return r.prefix == "" || strings.HasPrefix(name, r.prefix)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.help) > 0 {
		s.Help = make(map[string]string, len(b.help))
		for name, text := range b.help {
			if inScope(name) {
				s.Help[name] = text
			}
		}
	}
	if len(b.counters) > 0 {
		s.Counters = make(map[string]int64, len(b.counters))
		for name, c := range b.counters {
			if inScope(name) {
				s.Counters[name] = c.Value()
			}
		}
	}
	if len(b.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(b.gauges))
		for name, g := range b.gauges {
			if inScope(name) {
				s.Gauges[name] = g.Value()
			}
		}
	}
	if len(b.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(b.hists))
		for name, h := range b.hists {
			if !inScope(name) {
				continue
			}
			hs := HistogramSnapshot{
				Sum:    h.Sum(),
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
			}
			// Count is the sum of the bucket reads, not h.Count(): an
			// Observe landing between the two would leave a snapshot whose
			// buckets disagree with its count.
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
				hs.Count += hs.Counts[i]
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// WriteJSON writes the snapshot as an indented JSON document.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// promName sanitizes a metric name for the Prometheus exposition format.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// defaultHelp describes the well-known metric families published across
// the repo, keyed by exact name. Dynamic names fall through to the
// prefix rules in helpFor.
var defaultHelp = map[string]string{
	"autotune_candidates_total":        "Schedule candidates enumerated by the autotuner.",
	"autotune_candidates_valid_total":  "Candidates that passed the SPM-capacity and legality checks.",
	"autotune_candidates_failed_total": "Candidates dropped after a measurement panic or exhausted retries.",
	"autotune_retries_total":           "Transient measurement errors retried with backoff.",
	"autotune_backoff_seconds":         "Cumulative wall seconds slept in measurement retry backoff.",
	"autotune_best_predicted_seconds":  "Model-predicted machine seconds of the best candidate.",
	"autotune_best_measured_seconds":   "Measured machine seconds of the selected schedule.",
	"autotune_machine_seconds":         "Simulated machine seconds spent measuring candidates.",
	"autotune_search_wall_seconds":     "Host wall seconds of the schedule search phase.",
	"autotune_finalist_wall_seconds":   "Host wall seconds of the finalist measurement phase.",
	"autotune_space_points_total":      "Raw schedule-space points of every tuned operator (coverage denominator).",
	"search_candidates_proposed_total": "Candidates proposed (compiled and predicted) by sample-efficient searchers.",
	"search_candidates_measured_total": "Proposed candidates actually measured on the simulated machine.",
	"search_candidates_pruned_total":   "Proposed candidates pruned by the learned cost model without measurement.",
	"search_rounds_total":              "Propose-predict-measure-learn rounds completed by searchers.",
	"search_model_mae_seconds":         "Prequential mean absolute error, seconds, of the searcher's prediction (analytic estimate x learned correction) after its warm-up.",
	"search_budget_candidates":         "Measurement budget (candidate count) of the current search.",
	"search_transfer_seeds_total":      "Population seeds donated by nearest-neighbor cached schedules.",
	"cache_neighbor_lookups_total":     "Nearest-neighbor transfer lookups served by the schedule library.",
	"exec_runs_total":                  "Programs executed on the simulated core group.",
	"exec_run_failures_total":          "Program executions that returned an error.",
	"exec_run_seconds":                 "Simulated machine seconds per program execution.",
	"exec_machine_seconds":             "Cumulative simulated machine seconds executed.",
	"cache_hits_total":                 "Schedule-library lookups that found an entry.",
	"cache_misses_total":               "Schedule-library lookups that found nothing.",
	"cache_puts_total":                 "Schedules stored into the library.",
	"cache_deletes_total":              "Schedules deleted from the library.",
	"cache_commits_total":              "Successful library saves to disk.",
	"cache_commit_failures_total":      "Library saves that failed.",
	"cache_loaded_entries_total":       "Entries accepted while loading a library file.",
	"cache_quarantined_total":          "Entries rejected (quarantined) while loading a library file.",
	"tuner_cache_hits_total":           "Tuner-level library hits serving a cached schedule.",
	"tuner_cache_misses_total":         "Tuner-level library misses that forced tuning.",
	"tuner_degraded_total":             "Operators degraded to the manual baseline schedule.",
	"infer_machine_seconds":            "Simulated machine seconds of the whole network run.",
	"infer_arena_peak_bytes":           "Peak bytes of the activation buffer-reuse arena.",
	"infer_dma_hidden_ratio":           "Fraction of DMA time hidden behind compute.",
	"infer_comm_seconds":               "Modeled cross-group communication seconds of fleet runs.",
	"swbench_experiments_total":        "Paper experiments regenerated this session.",
	"serve_queue_capacity":             "Bound of the admission queue.",
	"serve_queue_depth":                "Admission-queue depth at the last sample.",
	"serve_queue_depth_max":            "High-water mark of the admission-queue depth.",
	"serve_admitted_total":             "Requests admitted into the queue.",
	"serve_shed_total":                 "Requests shed with 429 because the queue was full.",
	"serve_drain_rejected_total":       "Requests rejected because the server was draining.",
	"serve_canceled_total":             "Admitted requests whose client went away before a result.",
	"serve_deadline_expired_total":     "Requests answered 408 after their deadline passed.",
	"serve_responses_total":            "Successful responses delivered.",
	"serve_degraded_total":             "Responses served by baseline-fallback schedules.",
	"serve_batches_total":              "Coalesced batches executed.",
	"serve_batches_degraded_total":     "Batches that ran in degraded mode.",
	"serve_batch_failures_total":       "Batches that failed outright (members saw errors).",
	"serve_batch_pad_total":            "Padding inferences executed to round batches up to buckets.",
	"serve_batch_size":                 "Live requests per executed batch.",
	"serve_machine_seconds":            "Cumulative simulated machine seconds of served batches.",
	"serve_run_ms":                     "Wall milliseconds per batch engine run.",
	"serve_latency_ms":                 "End-to-end wall latency per response, milliseconds.",
	"serve_breaker_state":              "Circuit breaker state (0 closed, 0.5 half-open, 1 open).",
	"serve_breaker_trips":              "Times the circuit breaker tripped open.",
	"serve_slo_burn_rate":              "Error-budget burn rate at the last SLO check (1.0 = on target).",
	"serve_slo_breaches_total":         "SLO burn-rate breach episodes detected.",
}

// helpPrefixes describes dynamically named metric families.
var helpPrefixes = []struct{ prefix, text string }{
	{"infer_method_", "Layers resolved to this convolution method."},
	{"infer_", "Inference-layer resolution outcome counter."},
	{"machine_", "Simulated SW26010 machine counter."},
	{"swsim_", "Substrate characterization measurement."},
}

// helpFor picks the # HELP text for a metric: explicit SetHelp text wins,
// then the built-in tables, then a generic kind-based line — every family
// always gets a HELP line.
func (s Snapshot) helpFor(name, kind string) string {
	if text, ok := s.Help[name]; ok {
		return text
	}
	if text, ok := defaultHelp[name]; ok {
		return text
	}
	for _, p := range helpPrefixes {
		if strings.HasPrefix(name, p.prefix) {
			return p.text
		}
	}
	// Per-core-group scoped metrics ("group3_machine_gemm_ops") describe
	// the same families as their unscoped names.
	if rest, ok := stripGroupPrefix(name); ok {
		return "Per-core-group: " + s.helpFor(rest, kind)
	}
	return "swATOP " + kind + "."
}

// stripGroupPrefix removes a leading "group<N>_" scope from a metric name.
func stripGroupPrefix(name string) (string, bool) {
	if !strings.HasPrefix(name, "group") {
		return "", false
	}
	rest := name[len("group"):]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	if i == 0 || i >= len(rest) || rest[i] != '_' {
		return "", false
	}
	return rest[i+1:], true
}

// escapeHelp escapes help text per the exposition format: backslash and
// newline are the only characters with escape sequences in comment lines.
func escapeHelp(text string) string {
	text = strings.ReplaceAll(text, `\`, `\\`)
	return strings.ReplaceAll(text, "\n", `\n`)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE comments for every family,
// cumulative histogram buckets with an explicit +Inf bound, names sorted.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			pn, escapeHelp(s.helpFor(name, "counter")), pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			pn, escapeHelp(s.helpFor(name, "gauge")), pn, pn, formatFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		pn := promName(name)
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
			pn, escapeHelp(s.helpFor(name, "histogram")), pn); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, formatFloat(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			pn, h.Count, pn, formatFloat(h.Sum), pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the snapshot as an aligned human-readable table — the
// CLIs' `-metrics -` mode.
func (s Snapshot) Table() string {
	var b strings.Builder
	width := 0
	for _, m := range []int{longest(s.Counters), longest(s.Gauges), longest(s.Histograms)} {
		if m > width {
			width = m
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-*s %d\n", width, name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-*s %s\n", width, name, formatFloat(s.Gauges[name]))
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-*s count %d  sum %s  mean %s\n",
				width, name, h.Count, formatFloat(h.Sum), formatFloat(mean))
		}
	}
	if b.Len() == 0 {
		return "(no metrics recorded)\n"
	}
	return b.String()
}

func longest[V any](m map[string]V) int {
	n := 0
	for k := range m {
		if len(k) > n {
			n = len(k)
		}
	}
	return n
}
