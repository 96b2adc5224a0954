package swatop

import (
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
)

// MetricsRegistry is the concurrency-safe metrics registry of
// internal/metrics: named counters, gauges and fixed-bucket histograms with
// JSON and Prometheus-style exposition. Attach one to a Tuner or Engine
// with SetMetrics.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry's values; see
// MetricsSnapshot.WriteJSON, WritePrometheus and Table.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Observer is the structured event hub of internal/obsrv: every
// instrumented layer (tuning, execution, cache, inference) emits leveled
// events into it, and it fans them out to a fixed-capacity flight
// recorder and to live subscribers (the introspection server's /events
// stream). Attach one with Tuner.SetObserver or Engine.SetObserver. Attaching an observer never
// changes a tuning result: events are observational only, and the metrics
// snapshots of an observed run are bit-identical to an unobserved one.
type Observer = obsrv.Observer

// JobStatus is the frozen view of one tracked tuning or inference job, as
// served on the introspection server's /statusz endpoint.
type JobStatus = obsrv.JobStatus

// NewObserver creates an observer with the default flight-recorder
// capacity.
func NewObserver() *Observer { return obsrv.New() }
