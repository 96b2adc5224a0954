package cliobs

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"swatop/internal/metrics"
	"swatop/internal/obsrv"
)

func TestRegisterParsesSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "trace help text")
	if err := fs.Parse([]string{
		"-metrics", "-", "-trace-out", "t.json", "-listen", ":0", "-flight-out", "f.json",
	}); err != nil {
		t.Fatal(err)
	}
	if f.Metrics != "-" || f.TraceOut != "t.json" || f.Listen != ":0" || f.FlightOut != "f.json" {
		t.Fatalf("parsed flags: %+v", f)
	}
}

func TestSessionLifecycleWithServer(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{Listen: "127.0.0.1:0", FlightOut: filepath.Join(dir, "flight.json"),
		History: true, ScrapeInterval: time.Hour}
	reg := metrics.NewRegistry()
	reg.Counter("autotune_candidates_total").Add(5)

	// Capture the "introspection: http://..." hint printed to stderr.
	oldStderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	sess, startErr := f.Start("swtest", reg)
	os.Stderr = oldStderr
	w.Close()
	hint, _ := io.ReadAll(r)
	if startErr != nil {
		t.Fatal(startErr)
	}
	defer sess.Close()

	url, ok := strings.CutPrefix(strings.TrimSpace(string(hint)), "introspection: ")
	if !ok {
		t.Fatalf("no introspection hint on stderr: %q", hint)
	}
	resp, err := http.Get(url + "metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "autotune_candidates_total 5") {
		t.Fatalf("served metrics wrong:\n%s", body)
	}

	// -history mounts /varz, filled by the scraper's immediate first scrape.
	resp, err = http.Get(url + "varz/autotune_candidates_total")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"last": 5`) {
		t.Fatalf("/varz/autotune_candidates_total = %d:\n%s", resp.StatusCode, body)
	}

	// The flight sink is the -flight-out file.
	sess.Observer.AutoDump("test dump")
	sess.Close() // flushes and closes the file; idempotent
	sess.Close()
	dump, err := os.ReadFile(f.FlightOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), `"reason":"test dump"`) {
		t.Fatalf("flight dump not written: %s", dump)
	}
}

// TestSessionDrainOnSIGTERM: the first SIGTERM cancels Context and runs
// the OnDrain hooks (in order) without killing the process — the graceful
// half of daemon shutdown, shared by all five CLIs.
func TestSessionDrainOnSIGTERM(t *testing.T) {
	sess, err := (&Flags{}).Start("swtest", metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Context().Err(); err != nil {
		t.Fatalf("fresh session context canceled: %v", err)
	}

	var mu sync.Mutex
	var order []string
	hook := func(name string) func() {
		return func() {
			mu.Lock()
			defer mu.Unlock()
			order = append(order, name)
		}
	}
	sess.OnDrain(hook("first"))
	sess.OnDrain(hook("second"))

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Context().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the session context")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := strings.Join(order, ",")
		mu.Unlock()
		if got == "first,second" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain hooks ran as [%s], want [first,second]", got)
		}
		time.Sleep(time.Millisecond)
	}
	// The drain is once-only: a direct second drain() changes nothing.
	sess.drain()
	mu.Lock()
	n := len(order)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("drain hooks ran %d times, want 2", n)
	}
}

// TestSessionCloseCancelsContext: Close is a programmatic drain signal for
// code paths that end without a signal.
func TestSessionCloseCancelsContext(t *testing.T) {
	sess, err := (&Flags{}).Start("swtest", metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	select {
	case <-sess.Context().Done():
	default:
		t.Fatal("Close did not cancel the session context")
	}
}

func TestHostAddr(t *testing.T) {
	for in, want := range map[string]string{
		"[::]:8080":      "localhost:8080",
		"0.0.0.0:9090":   "localhost:9090",
		"127.0.0.1:8080": "127.0.0.1:8080",
	} {
		if got := hostAddr(in); got != want {
			t.Errorf("hostAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestProgressLine(t *testing.T) {
	var jobs *obsrv.JobTracker
	if got := progressLine(jobs); got != "" {
		t.Fatalf("nil tracker: %q", got)
	}
	jobs = obsrv.NewJobTracker()
	if got := progressLine(jobs); got != "" {
		t.Fatalf("idle tracker: %q", got)
	}

	tune := jobs.Start("tune", "gemm_2048")
	tune.Progress(120, 96, 2, 1.75)
	got := progressLine(jobs)
	for _, want := range []string{"tuning gemm_2048", "120 candidates", "96 valid", "2 failed", "best 1.75 ms"} {
		if !strings.Contains(got, want) {
			t.Fatalf("tune line %q missing %q", got, want)
		}
	}
	tune.Finish(obsrv.JobDone)

	infer := jobs.Start("infer", "vgg16")
	infer.SetTotal(16)
	infer.Progress(7, 7, 0, 0)
	infer.SetDetail("resolving conv3_1")
	got = progressLine(jobs)
	for _, want := range []string{"vgg16", "7/16 layers", "resolving conv3_1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("infer line %q missing %q", got, want)
		}
	}
}

func TestStartProgressRendersAndStops(t *testing.T) {
	sess := &Session{Observer: obsrv.New()}
	j := sess.Observer.Jobs().Start("tune", "conv_x")
	j.Progress(10, 8, 0, 0.5)
	var buf syncBuffer
	stop := sess.StartProgress(&buf)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "tuning conv_x") {
		if time.Now().After(deadline) {
			t.Fatalf("no progress rendered: %q", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("stop did not terminate the line: %q", buf.String())
	}
}

func TestWriteMetricsFile(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("x_total").Inc()
	path := filepath.Join(t.TempDir(), "m.json")
	sess := &Session{Registry: reg, flags: &Flags{Metrics: path}}
	if err := sess.WriteMetrics(false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"x_total": 1`) {
		t.Fatalf("metrics file: %s", data)
	}
	// "" is a no-op.
	sess.flags.Metrics = ""
	if err := sess.WriteMetrics(false); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	err := WriteTrace(path, func(w io.Writer) error {
		_, err := fmt.Fprint(w, `{"traceEvents":[]}`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace("", nil); err != nil { // "" is a no-op
		t.Fatal(err)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the progress ticker.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
