// Package cache implements swATOP's deployment modes (§1: "swATOP can be
// used as an offline compiler by pre-generating near-optimal executable
// code, or be integrated into other frameworks to provide online
// autotuning"): a persistent schedule library that maps operator
// signatures to tuned strategies, so a DL framework tunes each shape once
// and compiles from the cache afterwards.
package cache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"swatop/internal/dsl"
	"swatop/internal/faults"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
)

// SchemaVersion is the on-disk library format version. Files written by
// Save carry it; Load quarantines entries of any other version rather than
// guessing at their meaning. Pre-versioned files (a bare JSON entry array)
// are still read as version 1.
const SchemaVersion = 1

// libraryFile is the persisted representation.
type libraryFile struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// Entry is one cached tuning result.
type Entry struct {
	// Signature identifies the operator instance (name encodes shape).
	Signature string `json:"signature"`
	// Strategy fields (Strategy itself carries maps; serialized fully).
	Factors      map[string]int   `json:"factors"`
	Order        []string         `json:"order,omitempty"`
	Layouts      map[string][]int `json:"layouts,omitempty"`
	VecN         bool             `json:"vec_n,omitempty"`
	DoubleBuffer bool             `json:"double_buffer"`
	Traditional  bool             `json:"traditional_padding,omitempty"`
	// SimulatedSeconds records the measured performance at tuning time.
	SimulatedSeconds float64 `json:"simulated_seconds"`
	// SpaceSize records how many candidates the tuner considered.
	SpaceSize int `json:"space_size"`
	// Degraded marks a baseline-fallback entry (served when tuning was
	// sabotaged, see the facade's resilience path). Degraded entries are
	// still served on exact Get hits but are never transfer seeds: a
	// fallback schedule must not steer a neighboring shape's search.
	Degraded bool `json:"degraded,omitempty"`
}

// Strategy reconstructs the dsl.Strategy.
func (e Entry) Strategy() dsl.Strategy {
	vec := ir.VecM
	if e.VecN {
		vec = ir.VecN
	}
	pad := dsl.PadLightweight
	if e.Traditional {
		pad = dsl.PadTraditional
	}
	return dsl.Strategy{
		Factors:      e.Factors,
		Order:        e.Order,
		Layouts:      e.Layouts,
		Vec:          vec,
		DoubleBuffer: e.DoubleBuffer,
		Padding:      pad,
	}
}

// FromStrategy builds an entry.
func FromStrategy(signature string, st dsl.Strategy, seconds float64, spaceSize int) Entry {
	return Entry{
		Signature:        signature,
		Factors:          st.Factors,
		Order:            st.Order,
		Layouts:          st.Layouts,
		VecN:             st.Vec == ir.VecN,
		DoubleBuffer:     st.DoubleBuffer,
		Traditional:      st.Padding == dsl.PadTraditional,
		SimulatedSeconds: seconds,
		SpaceSize:        spaceSize,
	}
}

// Validate reports why an entry is unusable. Load refuses to admit
// entries that fail it: a corrupt or hand-edited library must never poison
// the live cache with schedules that cannot compile or with nonsense
// performance numbers that would win every Put collision.
func (e Entry) Validate() error {
	if e.Signature == "" {
		return errors.New("missing signature")
	}
	if len(e.Factors) == 0 {
		return errors.New("nil or empty factors")
	}
	for name, f := range e.Factors {
		if f <= 0 {
			return fmt.Errorf("factor %q is %d, want > 0", name, f)
		}
	}
	if !(e.SimulatedSeconds > 0) || math.IsInf(e.SimulatedSeconds, 0) {
		// The negated comparison also rejects NaN.
		return fmt.Errorf("simulated_seconds %v, want finite > 0", e.SimulatedSeconds)
	}
	if e.SpaceSize < 0 {
		return fmt.Errorf("space_size %d, want >= 0", e.SpaceSize)
	}
	return nil
}

// Library is a concurrency-safe schedule cache.
type Library struct {
	mu       sync.RWMutex
	entries  map[string]Entry
	faults   *faults.Injector
	metrics  *metrics.Registry
	observer *obsrv.Observer
}

// SetFaults attaches a fault injector consulted at the persistence
// injection points (nil detaches). Nil in every production run.
func (l *Library) SetFaults(in *faults.Injector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = in
}

// SetMetrics attaches a metrics registry: lookups, stores, commits and
// quarantines are counted as cache_* metrics (nil detaches).
func (l *Library) SetMetrics(reg *metrics.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics = reg
}

// SetObserver attaches a structured-event observer: hits, misses, stores,
// commits and quarantines become cache.* events (nil detaches). Events are
// observational only and never change admission decisions.
func (l *Library) SetObserver(o *obsrv.Observer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observer = o
}

// reg returns the attached registry (nil-safe: a nil registry's metrics
// are inert).
func (l *Library) reg() *metrics.Registry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.metrics
}

// obs returns the attached observer (nil-safe: a nil observer is inert).
func (l *Library) obs() *obsrv.Observer {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.observer
}

// NewLibrary creates an empty library.
func NewLibrary() *Library {
	return &Library{entries: map[string]Entry{}}
}

// Get looks up a tuned schedule.
func (l *Library) Get(signature string) (Entry, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	e, ok := l.entries[signature]
	if ok {
		l.metrics.Counter("cache_hits_total").Inc()
	} else {
		l.metrics.Counter("cache_misses_total").Inc()
	}
	if l.observer.Enabled() {
		kind := "cache.miss"
		if ok {
			kind = "cache.hit"
		}
		l.observer.Emit(obsrv.LevelDebug, kind, obsrv.F("signature", signature))
	}
	return e, ok
}

// Put stores a tuned schedule, keeping the faster entry on collision.
func (l *Library) Put(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics.Counter("cache_puts_total").Inc()
	if old, ok := l.entries[e.Signature]; ok && old.SimulatedSeconds <= e.SimulatedSeconds {
		return
	}
	l.entries[e.Signature] = e
	if l.observer.Enabled() {
		l.observer.Emit(obsrv.LevelDebug, "cache.put",
			obsrv.F("signature", e.Signature), obsrv.Ms("seconds_ms", e.SimulatedSeconds))
	}
}

// Delete removes a cached schedule (e.g. a stale entry whose strategy no
// longer compiles), reporting whether it existed.
func (l *Library) Delete(signature string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.entries[signature]
	if ok {
		l.metrics.Counter("cache_deletes_total").Inc()
		l.observer.Emit(obsrv.LevelDebug, "cache.delete", obsrv.F("signature", signature))
	}
	delete(l.entries, signature)
	return ok
}

// Len reports the number of cached schedules.
func (l *Library) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Signatures lists cached operator signatures, sorted.
func (l *Library) Signatures() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.entries))
	for s := range l.entries {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Save writes the library as versioned JSON, atomically: the data goes to
// a temp file in the destination directory, is fsynced, and is renamed
// over path — so a crash at any instant leaves either the old library or
// the new one, never a torn file. The parent directory is created if
// missing. Files are written 0o644 (world-readable: a schedule library
// holds tuning results, not secrets, and is commonly shared between the
// offline tuner and online framework processes of different users).
func (l *Library) Save(path string) error {
	err := l.save(path)
	if err != nil {
		l.reg().Counter("cache_commit_failures_total").Inc()
		l.obs().Emit(obsrv.LevelError, "cache.commit.fail",
			obsrv.F("path", path), obsrv.F("error", err))
	} else {
		l.reg().Counter("cache_commits_total").Inc()
		l.obs().Emit(obsrv.LevelInfo, "cache.commit",
			obsrv.F("path", path), obsrv.F("entries", l.Len()))
	}
	return err
}

func (l *Library) save(path string) error {
	l.mu.RLock()
	list := make([]Entry, 0, len(l.entries))
	for _, e := range l.entries {
		list = append(list, e)
	}
	inj := l.faults
	l.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].Signature < list[j].Signature })
	data, err := json.MarshalIndent(libraryFile{Version: SchemaVersion, Entries: list}, "", "  ")
	if err != nil {
		return fmt.Errorf("cache: save %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: save %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: save %s: %w", path, err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: save %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	// The crash window atomicity protects: the temp file is complete and
	// durable, the rename has not happened. A fault here simulates the
	// process dying mid-save; the existing library must stay untouched.
	if err := inj.Fire(faults.CacheCommit); err != nil {
		return cleanup(fmt.Errorf("injected crash before commit: %w", err))
	}
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: save %s: %w", path, err)
	}
	// Make the rename itself durable. Directory fsync is best-effort:
	// some filesystems refuse it, and the data file is already safe.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Quarantined is one entry Load refused to admit, with the reason.
type Quarantined struct {
	// Index is the entry's position in the file.
	Index int
	// Signature is the entry's signature ("" when missing).
	Signature string
	// Reason says why the entry was rejected.
	Reason string
}

// LoadReport summarizes one Load: how many entries were merged and which
// were quarantined. Quarantining never fails the load — a partially
// corrupt library yields its good entries and a report, not an error that
// forces the caller to discard everything.
type LoadReport struct {
	// Path is the file that was read.
	Path string
	// Loaded is the number of entries merged into the library.
	Loaded int
	// Quarantined lists rejected entries, in file order.
	Quarantined []Quarantined
}

// Load reads a library from JSON, merging valid entries into the receiver
// and silently quarantining invalid ones; use LoadWithReport to see what
// was rejected. A zero-length file is an empty library (the state a crash
// between create and first save leaves behind), not an error. All errors
// carry the file path.
func (l *Library) Load(path string) error {
	_, err := l.LoadWithReport(path)
	return err
}

// LoadWithReport is Load returning the per-entry admission report.
func (l *Library) LoadWithReport(path string) (LoadReport, error) {
	rep, err := l.loadWithReport(path)
	reg := l.reg()
	reg.Counter("cache_loaded_entries_total").Add(int64(rep.Loaded))
	reg.Counter("cache_quarantined_total").Add(int64(len(rep.Quarantined)))
	if obs := l.obs(); obs.Enabled() {
		obs.Emit(obsrv.LevelInfo, "cache.load",
			obsrv.F("path", path), obsrv.F("loaded", rep.Loaded),
			obsrv.F("quarantined", len(rep.Quarantined)))
		for _, q := range rep.Quarantined {
			obs.Emit(obsrv.LevelWarn, "cache.quarantine",
				obsrv.F("path", path), obsrv.F("index", q.Index),
				obsrv.F("signature", q.Signature), obsrv.F("reason", q.Reason))
		}
	}
	return rep, err
}

func (l *Library) loadWithReport(path string) (LoadReport, error) {
	rep := LoadReport{Path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("cache: load %s: %w", path, err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return rep, nil
	}
	var f libraryFile
	if err := json.Unmarshal(data, &f); err != nil {
		return rep, fmt.Errorf("cache: load %s: %w", path, err)
	}
	if f.Version != SchemaVersion {
		// A future (or garbage) schema: the entries may mean anything, so
		// quarantine them all instead of merging misinterpretations.
		for i, e := range f.Entries {
			rep.Quarantined = append(rep.Quarantined, Quarantined{
				Index: i, Signature: e.Signature,
				Reason: fmt.Sprintf("unknown schema version %d (want %d)", f.Version, SchemaVersion),
			})
		}
		return rep, nil
	}
	for i, e := range f.Entries {
		if err := e.Validate(); err != nil {
			rep.Quarantined = append(rep.Quarantined, Quarantined{
				Index: i, Signature: e.Signature, Reason: err.Error(),
			})
			continue
		}
		l.Put(e)
		rep.Loaded++
	}
	return rep, nil
}
