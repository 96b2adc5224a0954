package tshist

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// fixture builds a store with a counter growing 5/s and a histogram whose
// in-window observations put p99 at the 10 bound — the /varz acceptance
// shapes.
func fixture(t *testing.T) *Store {
	t.Helper()
	s := New(Options{})
	bounds := []float64{1, 10, 100}
	for sec := 0; sec <= 120; sec += 60 {
		snap := histSnap("lat", bounds, []int64{0, 0, 0, 0}, 0)
		if sec == 120 {
			snap = histSnap("lat", bounds, []int64{98, 1, 1, 0}, 100)
		}
		snap.Counters = map[string]int64{"reqs_total": int64(5 * sec)}
		snap.Gauges = map[string]float64{"queue_depth": float64(sec)}
		s.Ingest(at(float64(sec)), snap)
	}
	return s
}

func TestVarzIndex(t *testing.T) {
	s := fixture(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/varz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("content-type = %q", ct)
	}
	var doc struct {
		Ingests  int64        `json:"ingests"`
		Capacity int          `json:"capacity"`
		Series   []SeriesInfo `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Ingests != 3 {
		t.Fatalf("ingests = %d, want 3", doc.Ingests)
	}
	if doc.Capacity != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", doc.Capacity, DefaultCapacity)
	}
	names := map[string]bool{}
	for _, info := range doc.Series {
		names[info.Name] = true
	}
	for _, want := range []string{"reqs_total", "queue_depth", "lat"} {
		if !names[want] {
			t.Fatalf("series %q missing from index: %v", want, names)
		}
	}
}

func TestVarzCounterWindow(t *testing.T) {
	s := fixture(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec,
		httptest.NewRequest("GET", "/varz/reqs_total?window=60s", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var q QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if q.Kind != KindCounter {
		t.Fatalf("kind = %q", q.Kind)
	}
	if q.Delta != 300 || q.Rate != 5 {
		t.Fatalf("delta/rate = %v/%v, want 300/5", q.Delta, q.Rate)
	}
}

func TestVarzHistogramWindow(t *testing.T) {
	s := fixture(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec,
		httptest.NewRequest("GET", "/varz/lat?window=60s", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var q QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if q.Count != 100 {
		t.Fatalf("count = %d, want 100", q.Count)
	}
	if q.P50 != 1 || q.P99 != 10 {
		t.Fatalf("p50/p99 = %v/%v, want 1/10", q.P50, q.P99)
	}
}

func TestVarzUnknownSeries(t *testing.T) {
	s := fixture(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/varz/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}

func TestVarzBadWindow(t *testing.T) {
	s := fixture(t)
	for _, url := range []string{
		"/varz?window=banana",
		"/varz/reqs_total?window=banana",
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Fatalf("%s: status = %d, want 400", url, rec.Code)
		}
	}
}

// TestVarzIgnoresRes: the store has one resolution, so the retired res=
// parameter is answered like any unknown one — ignored, whatever it holds.
func TestVarzIgnoresRes(t *testing.T) {
	s := fixture(t)
	var want, got bytes.Buffer
	for url, body := range map[string]*bytes.Buffer{
		"/varz/reqs_total?window=60s":            &want,
		"/varz/reqs_total?window=60s&res=banana": &got,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d: %s", url, rec.Code, rec.Body)
		}
		body.Write(rec.Body.Bytes())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("res= changed the answer:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
}
