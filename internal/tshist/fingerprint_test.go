package tshist

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"swatop/internal/metrics"
)

var updateFingerprint = flag.Bool("update-fingerprint", false,
	"rewrite testdata/varz_fingerprint.json from the current code")

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// seriesFP is every number Query derives for one series over one window;
// floats are IEEE bit patterns, so "close" is not "equal".
type seriesFP struct {
	Kind  string `json:"kind"`
	Delta string `json:"delta"`
	Rate  string `json:"rate"`
	Min   string `json:"min"`
	Max   string `json:"max"`
	Mean  string `json:"mean"`
	Last  string `json:"last"`
	Count int64  `json:"count"`
	Sum   string `json:"sum"`
	P50   string `json:"p50"`
	P90   string `json:"p90"`
	P99   string `json:"p99"`
}

type utilFP struct {
	Group       string `json:"group"`
	Compute     string `json:"compute_seconds"`
	Stall       string `json:"stall_seconds"`
	Comm        string `json:"comm_seconds"`
	Utilization string `json:"utilization"`
}

type windowFP struct {
	Series      map[string]seriesFP `json:"series"`
	Unknown     bool                `json:"unknown_series_found"`
	Utilization []utilFP            `json:"utilization"`
}

func fingerprintWindow(s *Store, names []string, window time.Duration) windowFP {
	fp := windowFP{Series: map[string]seriesFP{}}
	for _, name := range names {
		q, ok := s.Query(name, window)
		if !ok {
			continue
		}
		fp.Series[name] = seriesFP{
			Kind: q.Kind, Delta: bits(q.Delta), Rate: bits(q.Rate),
			Min: bits(q.Min), Max: bits(q.Max), Mean: bits(q.Mean), Last: bits(q.Last),
			Count: q.Count, Sum: bits(q.Sum),
			P50: bits(q.P50), P90: bits(q.P90), P99: bits(q.P99),
		}
	}
	_, fp.Unknown = s.Query("no_such_series", window)
	for _, u := range s.FleetUtilization(window) {
		fp.Utilization = append(fp.Utilization, utilFP{
			Group: u.Group, Compute: bits(u.ComputeSeconds), Stall: bits(u.StallSeconds),
			Comm: bits(u.CommSeconds), Utilization: bits(u.Utilization),
		})
	}
	return fp
}

// TestVarzFingerprint pins what /varz derives from a scraped registry: a
// counter, a gauge, a histogram and the fleet's per-group machine gauges,
// scraped once per whole second for 400 s on a synthetic clock (longer than
// the 360 retained points, so the lifetime view is a clamped one), queried
// over the lifetime and three windows, plus an empty store's answers.
func TestVarzFingerprint(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{})
	sc := NewScraper(s, reg, time.Second)
	sec := 0
	sc.SetClock(func() time.Time { return time.Unix(int64(1_700_000_000+sec), 0) })

	empty := fingerprintWindow(s, []string{"reqs_total"}, time.Minute)

	lat := reg.Histogram("lat_ms", 0.5, 1, 2, 5, 10, 20, 50, 100)
	groups := []*metrics.Registry{reg, reg.Scope("group0_"), reg.Scope("group1_")}
	for sec = 0; sec <= 400; sec++ {
		reg.Counter("reqs_total").Add(int64(3 + sec%5))
		reg.Gauge("queue_depth").Set(float64((sec*7)%13) + 0.25)
		for i := 0; i <= sec%4; i++ {
			x := float64((sec*31 + i*17) % 100) // cubic skew: a long tail, some overflow
			lat.Observe(x * x * x / 7e3)
		}
		for g, scope := range groups {
			scope.Gauge("machine_compute_seconds").Add(0.0013 * float64(1+(sec+g)%7))
			scope.Gauge("machine_stall_seconds").Add(0.0004 * float64(1+(sec+2*g)%3))
		}
		reg.Gauge("infer_comm_seconds").Add(0.0002 * float64(sec%6))
		sc.ScrapeOnce()
	}

	var names []string
	for _, info := range s.Series() {
		names = append(names, info.Name)
	}
	fp := map[string]windowFP{"empty_store_60s": empty}
	for _, w := range []time.Duration{0, 30 * time.Second, time.Minute, 5 * time.Minute} {
		key := "lifetime"
		if w > 0 {
			key = w.String()
		}
		fp[key] = fingerprintWindow(s, names, w)
	}

	got, err := json.MarshalIndent(fp, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/varz_fingerprint.json"
	if *updateFingerprint {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-fingerprint)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("derived /varz numbers differ from %s:\n%s", path, got)
	}
}
