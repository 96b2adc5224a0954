package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"swatop/internal/obsrv"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// SLO is the serving path's service-level objective and the guardrail that
// watches it: a background checker computes the error-budget burn rate
// from the metrics registry, and a breach auto-captures the evidence a
// postmortem needs — a flight-recorder dump — at the moment the budget is
// burning, not hours later when someone reads a dashboard. (A CPU profile
// of a burning daemon is one GET of /debug/pprof/profile on the same port.)
//
// Two budgets are watched, and the burn rate is the worse of them:
//
//   - Latency: at most 1% of responses may exceed P99TargetMs. The slow
//     fraction comes from the serve_latency_ms histogram (buckets with
//     bounds <= target count as fast), so burn 1.0 means exactly the
//     budgeted 1% is slow and burn 5.0 means 5% is.
//   - Availability: at least the Availability fraction of finished
//     requests must be answered (shed 429s and expired 408s are the
//     failures). Burn 1.0 means the error fraction equals the budget
//     1-Availability.
//
// Both are computed over the server's lifetime counters — a deliberate
// simplification over windowed burn rates: the daemon's acceptance tests
// and auto-dump hook need "is the budget burning", not multi-window
// alerting policy.
type SLO struct {
	// P99TargetMs is the latency objective: at most 1% of responses may be
	// slower than this. 0 disables the latency budget.
	P99TargetMs float64
	// Availability is the fraction of finished requests that must receive
	// an answer (e.g. 0.999). 0 disables the availability budget.
	Availability float64
	// CheckInterval is the background check cadence (default 5s).
	CheckInterval time.Duration
}

// burnThreshold is the burn rate that counts as a breach: burning budget at
// twice the sustainable rate.
const burnThreshold = 2.0

func (o *SLO) checkInterval() time.Duration {
	if o.CheckInterval > 0 {
		return o.CheckInterval
	}
	return 5 * time.Second
}

// sloState is the guardrail's mutable half, hanging off the Server.
type sloState struct {
	mu       sync.Mutex
	breached bool // inside a breach episode (hysteresis)

	burn     atomic.Uint64 // last burn rate, float bits
	breaches atomic.Uint64
}

// sloChecker is the background loop; it stops when the batcher exits
// (Drain completed).
func (s *Server) sloChecker() {
	t := time.NewTicker(s.cfg.SLO.checkInterval())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.CheckSLO()
		case <-s.batcherDone:
			return
		}
	}
}

// CheckSLO computes the current burn rate, publishes it, and fires the
// breach action (a flight dump) when it crosses the threshold. Exported so tests and operators can force a check instead of
// waiting out the interval. Returns the burn rate (0 when no SLO is
// configured or nothing has been served).
func (s *Server) CheckSLO() float64 {
	slo := s.cfg.SLO
	if slo == nil {
		return 0
	}
	snap := s.reg.Snapshot()

	burn := 0.0
	if slo.P99TargetMs > 0 {
		if h, ok := snap.Histograms["serve_latency_ms"]; ok && h.Count > 0 {
			fast := int64(0)
			for i, bound := range h.Bounds {
				if bound <= slo.P99TargetMs {
					fast += h.Counts[i]
				}
			}
			fracSlow := 1 - float64(fast)/float64(h.Count)
			if b := fracSlow / 0.01; b > burn {
				burn = b
			}
		}
	}
	if slo.Availability > 0 && slo.Availability < 1 {
		failed := snap.Counters["serve_shed_total"] + snap.Counters["serve_deadline_expired_total"]
		total := snap.Counters["serve_responses_total"] + failed
		if total > 0 {
			errFrac := float64(failed) / float64(total)
			if b := errFrac / (1 - slo.Availability); b > burn {
				burn = b
			}
		}
	}

	s.slo.burn.Store(floatBits(burn))
	s.reg.Gauge("serve_slo_burn_rate").Set(burn)

	s.slo.mu.Lock()
	fire := false
	if burn >= burnThreshold && !s.slo.breached {
		s.slo.breached = true
		fire = true
	} else if s.slo.breached && burn < burnThreshold/2 {
		// Hysteresis: the episode ends only once the burn rate halves, so
		// a rate hovering at the threshold dumps once, not every check.
		s.slo.breached = false
	}
	s.slo.mu.Unlock()

	if fire {
		s.slo.breaches.Add(1)
		s.reg.Counter("serve_slo_breaches_total").Inc()
		s.obs.Emit(obsrv.LevelError, "slo.breach",
			obsrv.F("burn_rate", burn), obsrv.F("threshold", burnThreshold),
			obsrv.F("p99_target_ms", slo.P99TargetMs),
			obsrv.F("availability", slo.Availability))
		s.obs.AutoDump("slo-breach")
	}
	return burn
}

// SLOBurnRate reports the burn rate of the last check (0 before any).
func (s *Server) SLOBurnRate() float64 { return floatFromBits(s.slo.burn.Load()) }

// SLOBreaches reports how many breach episodes have fired.
func (s *Server) SLOBreaches() uint64 { return s.slo.breaches.Load() }
