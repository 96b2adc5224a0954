package obsrv

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Observer is the structured event hub: every layer emits events into it,
// and it fans them out to the flight-recorder ring and to live subscribers
// (the /events SSE endpoint). A nil *Observer is inert, mirroring
// internal/metrics: instrumented code calls obs.Emit(...) unconditionally
// and pays one nil check when observability is detached.
//
// Emission is bounded work and never blocks: the ring append is O(1) under
// a short mutex and subscriber sends are non-blocking (a slow subscriber
// loses events and its drop count grows). Observers never touch a metrics
// registry, which is how the "attaching observability changes no result"
// invariant holds by construction.
type Observer struct {
	seq    atomic.Uint64
	flight *Ring
	jobs   *JobTracker

	mu      sync.Mutex
	subs    map[int]*subscriber
	nextSub int
	flightW io.Writer // auto-dump destination (nil: auto dumps are skipped)
	dumps   atomic.Uint64
	dropped atomic.Uint64
}

type subscriber struct {
	ch      chan Event
	dropped atomic.Uint64
}

// New creates an observer with a DefaultFlightCapacity flight recorder.
func New() *Observer {
	return NewWithCapacity(DefaultFlightCapacity)
}

// NewWithCapacity creates an observer whose flight recorder retains the
// most recent capacity events.
func NewWithCapacity(capacity int) *Observer {
	return &Observer{
		flight: NewRing(capacity),
		jobs:   NewJobTracker(),
		subs:   map[int]*subscriber{},
	}
}

// Enabled reports whether events are being observed at all — the guard
// call sites use before formatting expensive fields.
func (o *Observer) Enabled() bool { return o != nil }

// SetFlightSink sets where automatic flight-recorder dumps go (tune
// failure, baseline fallback, SIGQUIT). Nil disables auto dumps;
// DumpFlight still works explicitly.
func (o *Observer) SetFlightSink(w io.Writer) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.flightW = w
	o.mu.Unlock()
}

// Jobs returns the observer's job tracker (nil on a nil observer; the
// tracker's own methods are nil-safe, so chained calls never branch).
func (o *Observer) Jobs() *JobTracker {
	if o == nil {
		return nil
	}
	return o.jobs
}

// Flight returns the flight-recorder ring (nil on a nil observer).
func (o *Observer) Flight() *Ring {
	if o == nil {
		return nil
	}
	return o.flight
}

// Emit records one structured event: sequence-stamped, appended to the
// flight recorder and fanned out to subscribers. Nil-safe and non-blocking.
func (o *Observer) Emit(level Level, kind string, fields ...Field) {
	if o == nil {
		return
	}
	e := Event{
		Seq:    o.seq.Add(1),
		Time:   time.Now(),
		Level:  level,
		Kind:   kind,
		Fields: fields,
	}
	o.flight.Append(e)

	o.mu.Lock()
	for _, s := range o.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
			o.dropped.Add(1)
		}
	}
	o.mu.Unlock()
}

// Subscribe registers a live event listener with the given channel buffer
// (values < 1 get a sane default). It returns the event channel and a
// cancel function; after cancel the channel is closed. Slow subscribers
// drop events instead of blocking emitters.
func (o *Observer) Subscribe(buffer int) (<-chan Event, func()) {
	if o == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	if buffer < 1 {
		buffer = 256
	}
	s := &subscriber{ch: make(chan Event, buffer)}
	o.mu.Lock()
	o.nextSub++
	id := o.nextSub
	o.subs[id] = s
	o.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			o.mu.Lock()
			delete(o.subs, id)
			o.mu.Unlock()
			close(s.ch)
		})
	}
	return s.ch, cancel
}

// Subscribers reports the number of live subscribers.
func (o *Observer) Subscribers() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.subs)
}

// Dropped is the total number of events lost to slow subscribers.
func (o *Observer) Dropped() uint64 {
	if o == nil {
		return 0
	}
	return o.dropped.Load()
}
