package cache

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encoding/json"

	"swatop/internal/dsl"
	"swatop/internal/faults"
	"swatop/internal/ir"
	"swatop/internal/metrics"
)

func sampleStrategy() dsl.Strategy {
	return dsl.Strategy{
		Factors:      map[string]int{"m": 64, "n": 128, "k": 256},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"C": {1, 0}},
		Vec:          ir.VecN,
		DoubleBuffer: true,
		Padding:      dsl.PadTraditional,
	}
}

func TestEntryRoundTrip(t *testing.T) {
	st := sampleStrategy()
	e := FromStrategy("gemm_1x2x3", st, 0.5, 42)
	back := e.Strategy()
	if back.String() != st.String() {
		t.Fatalf("round trip changed strategy:\n%s\n%s", st, back)
	}
}

func TestLibraryPutGetCollision(t *testing.T) {
	l := NewLibrary()
	if _, ok := l.Get("x"); ok {
		t.Fatal("empty library should miss")
	}
	l.Put(FromStrategy("x", sampleStrategy(), 2.0, 10))
	l.Put(FromStrategy("x", sampleStrategy(), 1.0, 10)) // faster: replaces
	l.Put(FromStrategy("x", sampleStrategy(), 3.0, 10)) // slower: ignored
	e, ok := l.Get("x")
	if !ok || e.SimulatedSeconds != 1.0 {
		t.Fatalf("collision policy wrong: %+v", e)
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestLibraryDelete(t *testing.T) {
	l := NewLibrary()
	if l.Delete("x") {
		t.Fatal("deleting a missing entry must report false")
	}
	l.Put(FromStrategy("x", sampleStrategy(), 1.0, 10))
	if !l.Delete("x") {
		t.Fatal("delete must report the entry existed")
	}
	if _, ok := l.Get("x"); ok || l.Len() != 0 {
		t.Fatal("entry survived deletion")
	}
	// After deletion, a slower entry must be storable again: deletion clears
	// the keep-the-faster collision policy.
	l.Put(FromStrategy("x", sampleStrategy(), 5.0, 10))
	if e, ok := l.Get("x"); !ok || e.SimulatedSeconds != 5.0 {
		t.Fatalf("re-insert after delete failed: %+v", e)
	}
}

func TestLibrarySaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "schedules.json")
	l := NewLibrary()
	l.Put(FromStrategy("a", sampleStrategy(), 1.5, 7))
	l.Put(FromStrategy("b", sampleStrategy(), 2.5, 9))
	if err := l.Save(path); err != nil {
		t.Fatal(err)
	}
	l2 := NewLibrary()
	if err := l2.Load(path); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 2 {
		t.Fatalf("loaded %d entries", l2.Len())
	}
	sigs := l2.Signatures()
	if len(sigs) != 2 || sigs[0] != "a" || sigs[1] != "b" {
		t.Fatalf("signatures = %v", sigs)
	}
	e, _ := l2.Get("a")
	if e.Strategy().String() != sampleStrategy().String() {
		t.Fatal("loaded strategy differs")
	}
}

func TestLibraryLoadErrors(t *testing.T) {
	l := NewLibrary()
	if err := l.Load("/nonexistent/schedules.json"); err == nil {
		t.Fatal("missing file must error")
	} else if !strings.Contains(err.Error(), "/nonexistent/schedules.json") {
		t.Fatalf("error lost the file path: %v", err)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Load(bad); err == nil {
		t.Fatal("corrupt file must error")
	} else if !strings.Contains(err.Error(), bad) {
		t.Fatalf("error lost the file path: %v", err)
	}
	// An entry without a signature is quarantined, not a load failure: one
	// bad entry must not force the caller to discard the whole library.
	noSig := filepath.Join(dir, "nosig.json")
	if err := os.WriteFile(noSig, []byte(`{"version":1,"entries":[{"factors":{"m":64},"simulated_seconds":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := l.LoadWithReport(noSig)
	if err != nil {
		t.Fatalf("quarantinable entry failed the load: %v", err)
	}
	if rep.Loaded != 0 || len(rep.Quarantined) != 1 {
		t.Fatalf("report = %+v, want 0 loaded / 1 quarantined", rep)
	}
	if l.Len() != 0 {
		t.Fatal("invalid entry admitted")
	}
}

func TestLoadZeroLengthFileIsEmptyLibrary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "schedules.json")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLibrary()
	if err := l.Load(path); err != nil {
		t.Fatalf("zero-length file must load as empty, got %v", err)
	}
	if l.Len() != 0 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestLoadQuarantinesInvalidEntries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "schedules.json")
	content := `{"version":1,"entries":[
		{"signature":"good","factors":{"m":64},"simulated_seconds":0.5,"space_size":3},
		{"signature":"zero-time","factors":{"m":64},"simulated_seconds":0},
		{"signature":"neg-time","factors":{"m":64},"simulated_seconds":-1},
		{"signature":"no-factors","simulated_seconds":0.5},
		{"signature":"bad-factor","factors":{"m":0},"simulated_seconds":0.5},
		{"signature":"neg-space","factors":{"m":64},"simulated_seconds":0.5,"space_size":-1}
	]}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLibrary()
	rep, err := l.LoadWithReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || len(rep.Quarantined) != 5 {
		t.Fatalf("report = %+v, want 1 loaded / 5 quarantined", rep)
	}
	if _, ok := l.Get("good"); !ok || l.Len() != 1 {
		t.Fatalf("library holds %v, want only 'good'", l.Signatures())
	}
	for _, q := range rep.Quarantined {
		if q.Reason == "" || q.Signature == "" {
			t.Fatalf("quarantine record incomplete: %+v", q)
		}
	}
}

func TestLoadUnknownVersionQuarantinesAll(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.json")
	content := `{"version":99,"entries":[{"signature":"x","factors":{"m":64},"simulated_seconds":0.5}]}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLibrary()
	rep, err := l.LoadWithReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 0 || len(rep.Quarantined) != 1 || l.Len() != 0 {
		t.Fatalf("future-version entries admitted: %+v", rep)
	}
	if !strings.Contains(rep.Quarantined[0].Reason, "version 99") {
		t.Fatalf("reason = %q", rep.Quarantined[0].Reason)
	}
}

// TestLoadLegacyBareArray: the pre-versioned bare entry array is no longer
// a library format — loading one is an error that merges nothing.
func TestLoadLegacyBareArray(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.json")
	content := `[{"signature":"old","factors":{"m":64},"simulated_seconds":0.5,"space_size":3}]`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLibrary()
	rep, err := l.LoadWithReport(path)
	if err == nil {
		t.Fatal("a bare entry array must be a load error")
	}
	if rep.Loaded != 0 || l.Len() != 0 {
		t.Fatalf("bare array merged entries: %+v, library holds %d", rep, l.Len())
	}
}

func TestSaveCreatesParentDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "deeper", "schedules.json")
	l := NewLibrary()
	l.Put(FromStrategy("a", sampleStrategy(), 1.5, 7))
	if err := l.Save(path); err != nil {
		t.Fatal(err)
	}
	l2 := NewLibrary()
	if err := l2.Load(path); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 1 {
		t.Fatalf("loaded %d entries", l2.Len())
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("library file mode %o, want 644", perm)
	}
}

// TestSaveCrashLeavesOldLibraryIntact simulates a crash in the window
// between writing the temp file and renaming it over the library: the
// previous file must remain byte-identical and loadable, and no temp
// debris may shadow it.
func TestSaveCrashLeavesOldLibraryIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "schedules.json")
	l := NewLibrary()
	l.Put(FromStrategy("a", sampleStrategy(), 1.5, 7))
	if err := l.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	in := faults.New(1)
	in.FailEveryNth(faults.CacheCommit, 1, errors.New("power loss"))
	l.SetFaults(in)
	l.Put(FromStrategy("b", sampleStrategy(), 2.5, 9))
	if err := l.Save(path); err == nil {
		t.Fatal("crashed save must report an error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("crashed save modified the existing library")
	}
	l2 := NewLibrary()
	if err := l2.Load(path); err != nil {
		t.Fatalf("library unloadable after crashed save: %v", err)
	}
	if l2.Len() != 1 {
		t.Fatalf("loaded %d entries, want the pre-crash 1", l2.Len())
	}

	// With the fault disarmed the same save completes and both entries
	// round-trip.
	in.Disarm(faults.CacheCommit)
	if err := l.Save(path); err != nil {
		t.Fatal(err)
	}
	l3 := NewLibrary()
	if err := l3.Load(path); err != nil {
		t.Fatal(err)
	}
	if l3.Len() != 2 {
		t.Fatalf("post-recovery load got %d entries", l3.Len())
	}
}

func TestEntryValidate(t *testing.T) {
	good := FromStrategy("sig", sampleStrategy(), 0.5, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Entry)
	}{
		{"missing signature", func(e *Entry) { e.Signature = "" }},
		{"nil factors", func(e *Entry) { e.Factors = nil }},
		{"empty factors", func(e *Entry) { e.Factors = map[string]int{} }},
		{"non-positive factor", func(e *Entry) { e.Factors = map[string]int{"m": -1} }},
		{"zero seconds", func(e *Entry) { e.SimulatedSeconds = 0 }},
		{"negative seconds", func(e *Entry) { e.SimulatedSeconds = -0.5 }},
		{"NaN seconds", func(e *Entry) { e.SimulatedSeconds = math.NaN() }},
		{"Inf seconds", func(e *Entry) { e.SimulatedSeconds = math.Inf(1) }},
		{"negative space", func(e *Entry) { e.SpaceSize = -2 }},
	}
	for _, tc := range cases {
		e := FromStrategy("sig", sampleStrategy(), 0.5, 3)
		tc.mutate(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, e)
		}
	}
}

func TestLibraryMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLibrary()
	l.SetMetrics(reg)

	if _, ok := l.Get("missing"); ok {
		t.Fatal("unexpected hit")
	}
	l.Put(FromStrategy("g", sampleStrategy(), 0.5, 10))
	if _, ok := l.Get("g"); !ok {
		t.Fatal("expected hit")
	}
	l.Delete("g")
	l.Delete("g") // second delete of a gone entry must not count

	c := func(name string) int64 { return reg.Counter(name).Value() }
	if c("cache_hits_total") != 1 || c("cache_misses_total") != 1 ||
		c("cache_puts_total") != 1 || c("cache_deletes_total") != 1 {
		t.Fatalf("counters: hits=%d misses=%d puts=%d deletes=%d",
			c("cache_hits_total"), c("cache_misses_total"),
			c("cache_puts_total"), c("cache_deletes_total"))
	}

	// Save commits; a load with one bad entry quarantines it.
	l.Put(FromStrategy("g2", sampleStrategy(), 0.5, 10))
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := l.Save(path); err != nil {
		t.Fatal(err)
	}
	bad := FromStrategy("broken", sampleStrategy(), -1, 10) // invalid seconds
	l2 := NewLibrary()
	l2.Put(FromStrategy("g2", sampleStrategy(), 0.5, 10))
	l2.Put(bad)
	// Hand-write a file with the invalid entry to exercise quarantine.
	data, _ := json.Marshal(libraryFile{Version: SchemaVersion,
		Entries: []Entry{FromStrategy("ok", sampleStrategy(), 0.5, 10), bad}})
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewLibrary()
	fresh.SetMetrics(reg)
	if _, err := fresh.LoadWithReport(badPath); err != nil {
		t.Fatal(err)
	}
	if c("cache_commits_total") != 1 {
		t.Fatalf("commits = %d, want 1", c("cache_commits_total"))
	}
	if c("cache_loaded_entries_total") != 1 || c("cache_quarantined_total") != 1 {
		t.Fatalf("loaded=%d quarantined=%d, want 1/1",
			c("cache_loaded_entries_total"), c("cache_quarantined_total"))
	}
}
