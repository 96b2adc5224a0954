package obsrv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilObserverInert(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer claims enabled")
	}
	o.Emit(LevelInfo, "x", F("k", "v")) // must not panic
	o.SetFlightSink(&bytes.Buffer{})
	o.AutoDump("nil")
	if o.Jobs() != nil || o.Flight() != nil || o.Dropped() != 0 || o.Dumps() != 0 {
		t.Fatal("nil observer leaks state")
	}
	ch, cancel := o.Subscribe(4)
	cancel()
	if _, open := <-ch; open {
		t.Fatal("nil observer's subscription channel not closed")
	}
	var buf bytes.Buffer
	if err := o.WriteFlight(&buf, "nil"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil flight dump is not JSON: %s", buf.Bytes())
	}
}

func TestObserverSequenceAndRing(t *testing.T) {
	o := NewWithCapacity(16)
	for i := 0; i < 5; i++ {
		o.Emit(LevelDebug, "tick", F("i", i))
	}
	snap := o.Flight().Snapshot()
	if len(snap) != 5 {
		t.Fatalf("ring holds %d events", len(snap))
	}
	for i, e := range snap {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq not monotone from 1: %v", e.Seq)
		}
	}
}

func TestObserverSubscribe(t *testing.T) {
	o := New()
	ch, cancel := o.Subscribe(8)
	if o.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d", o.Subscribers())
	}
	o.Emit(LevelInfo, "cache.hit", F("op", "gemm"))
	e := <-ch
	if e.Kind != "cache.hit" || e.Fields[0].Value != "gemm" {
		t.Fatalf("subscriber got %+v", e)
	}
	cancel()
	cancel() // idempotent
	if _, open := <-ch; open {
		t.Fatal("channel not closed after cancel")
	}
	if o.Subscribers() != 0 {
		t.Fatalf("Subscribers after cancel = %d", o.Subscribers())
	}
}

func TestObserverSlowSubscriberDrops(t *testing.T) {
	o := New()
	_, cancel := o.Subscribe(1)
	defer cancel()
	for i := 0; i < 10; i++ { // buffer 1: nine emissions overflow
		o.Emit(LevelInfo, "spam")
	}
	if o.Dropped() != 9 {
		t.Fatalf("Dropped = %d, want 9", o.Dropped())
	}
}

func TestWriteFlightDocument(t *testing.T) {
	o := NewWithCapacity(4)
	j := o.Jobs().Start("tune", "conv\"x")
	j.Progress(3, 2, 1, 0.5)
	for i := 0; i < 6; i++ { // overflow the 4-slot ring
		o.Emit(LevelDebug, "candidate.finish", F("idx", i))
	}
	var buf bytes.Buffer
	if err := o.WriteFlight(&buf, `reason "quoted"`); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason         string `json:"reason"`
		PID            int    `json:"pid"`
		Capacity       int    `json:"capacity"`
		EventsTotal    uint64 `json:"events_total"`
		EventsRetained int    `json:"events_retained"`
		Jobs           []struct {
			Name  string `json:"name"`
			State string `json:"state"`
			Done  int    `json:"done"`
		} `json:"jobs"`
		Events []struct {
			Kind   string            `json:"kind"`
			Fields map[string]string `json:"fields"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("flight dump is not JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.Reason != `reason "quoted"` || doc.Capacity != 4 ||
		doc.EventsTotal != 6 || doc.EventsRetained != 4 {
		t.Fatalf("bad dump header: %+v", doc)
	}
	if len(doc.Jobs) != 1 || doc.Jobs[0].Name != `conv"x` || doc.Jobs[0].Done != 3 {
		t.Fatalf("bad jobs table: %+v", doc.Jobs)
	}
	if len(doc.Events) != 4 || doc.Events[0].Fields["idx"] != "2" {
		t.Fatalf("events not the newest window oldest-first: %+v", doc.Events)
	}
}

func TestAutoDump(t *testing.T) {
	o := New()
	o.AutoDump("no sink") // sinkless: a no-op
	if o.Dumps() != 0 {
		t.Fatalf("sinkless dump counted: %d", o.Dumps())
	}
	var sink bytes.Buffer
	o.SetFlightSink(&sink)
	o.AutoDump("tune failed: gemm")
	if o.Dumps() != 1 {
		t.Fatalf("Dumps = %d", o.Dumps())
	}
	if !json.Valid(sink.Bytes()) {
		t.Fatalf("auto dump wrote invalid JSON: %s", sink.Bytes())
	}
	if !strings.Contains(sink.String(), "tune failed: gemm") {
		t.Fatalf("reason missing from dump: %s", sink.String())
	}
	// The dump itself is recorded as a flight.dump event.
	events := o.Flight().Snapshot()
	if events[len(events)-1].Kind != "flight.dump" {
		t.Fatalf("no flight.dump event, tail = %+v", events[len(events)-1])
	}
}
