// Package cliobs is the shared observability plumbing of the five CLIs
// (swatop, swbench, swinfer, swsim, swserve): one place registering the
// -metrics, -trace-out, -listen, -flight-out, -history and
// -scrape-interval flags, starting the embedded introspection server
// (with /varz when history is on), arming the signal handlers
// (SIGQUIT flight dump; SIGTERM/SIGINT graceful drain) and rendering live
// progress lines from the observer's job tracker. Adding a new
// observability surface means touching this package once, not five main
// functions.
package cliobs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/tshist"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	// Metrics selects metrics reporting: "" none, "-" a table on stdout
	// (stderr when the caller keeps stdout machine-parseable), anything
	// else a JSON file.
	Metrics string
	// TraceOut is the Chrome trace-event JSON output path ("" = none).
	TraceOut string
	// Listen is the introspection server bind address ("" = no server).
	Listen string
	// FlightOut is where automatic flight-recorder dumps go ("" = stderr).
	FlightOut string
	// History enables the in-process time-series store: a scraper snapshots
	// the registry every ScrapeInterval, and -listen additionally serves
	// /varz (windowed rates/percentiles, JSON).
	History bool
	// ScrapeInterval is how often -history snapshots the registry; the
	// store retains the newest 360 snapshots, so it also sets how far back
	// /varz can look (6 minutes at 1s, 6 hours at 60s).
	ScrapeInterval time.Duration
}

// Register adds the shared observability flags to fs. traceHelp describes
// what -trace-out writes for this command (each CLI exports a different
// timeline).
func Register(fs *flag.FlagSet, traceHelp string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "",
		"write run metrics: '-' prints a table, anything else is a JSON file")
	fs.StringVar(&f.TraceOut, "trace-out", "", traceHelp)
	fs.StringVar(&f.Listen, "listen", "",
		"serve live introspection on this address (/metrics, /statusz, /events, /debug/pprof/); ':0' picks a port")
	fs.StringVar(&f.FlightOut, "flight-out", "",
		"write automatic flight-recorder dumps (tune failure, fallback, SIGQUIT) to this file instead of stderr")
	fs.BoolVar(&f.History, "history", false,
		"keep a bounded in-process time-series history of the metrics registry; with -listen it serves /varz (JSON)")
	fs.DurationVar(&f.ScrapeInterval, "scrape-interval", tshist.DefaultScrapeInterval,
		"how often -history snapshots the metrics registry; the newest 360 snapshots are kept (6 minutes at 1s, 6 hours at 60s)")
	return f
}

// Session is one CLI process's observability state: the observer every
// facade component reports into, the optional introspection server, and
// the flight-dump plumbing.
type Session struct {
	Observer *obsrv.Observer
	Registry *metrics.Registry
	// History is the time-series store behind -history (nil without the
	// flag). Daemons hand it to their own HTTP surface (swserve mounts
	// /varz on the serving port too).
	History *tshist.Store

	component string
	flags     *Flags
	server    *obsrv.Server
	scraper   *tshist.Scraper
	flightF   *os.File
	sigCh     chan os.Signal

	ctx       context.Context
	cancel    context.CancelFunc
	drainMu   sync.Mutex
	drainFns  []func()
	drainOnce sync.Once
}

// Start builds the session from parsed flags: it creates the observer,
// wires the flight sink (FlightOut file, stderr otherwise), starts the
// introspection server when -listen was given (printing the bound address
// to stderr), and arms the signal handlers (SIGQUIT flight dump,
// SIGTERM/SIGINT graceful drain). reg is the registry the command records
// into; it is what /metrics serves.
func (f *Flags) Start(component string, reg *metrics.Registry) (*Session, error) {
	s := &Session{
		Observer:  obsrv.New(),
		Registry:  reg,
		component: component,
		flags:     f,
	}
	if f.FlightOut != "" {
		file, err := os.Create(f.FlightOut)
		if err != nil {
			return nil, fmt.Errorf("%s: flight sink: %w", component, err)
		}
		s.flightF = file
		s.Observer.SetFlightSink(file)
	} else {
		s.Observer.SetFlightSink(os.Stderr)
	}
	if f.History {
		// The scraper only reads registry snapshots, so history on/off
		// cannot change selected schedules or any deterministic metric
		// (the bit-identical invariant obs-check gates).
		s.History = tshist.New(tshist.Options{})
		s.scraper = tshist.NewScraper(s.History, reg, f.ScrapeInterval)
	}
	if f.Listen != "" {
		s.server = obsrv.NewServer(component, s.Observer, reg)
		if s.History != nil {
			// Mounts must precede Start: the server freezes its mux there.
			s.server.Mount("/varz", s.History.Handler(), tshist.VarzHelp)
		}
		addr, err := s.server.Start(f.Listen)
		if err != nil {
			s.Close()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "introspection: http://%s/\n", hostAddr(addr))
	}
	s.scraper.Start()
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// Signal handling, shared by every CLI:
	//   - SIGQUIT dumps the flight recorder before exiting — the unattended-
	//     session post-mortem trigger ("what was it doing?" without a
	//     debugger).
	//   - SIGTERM/SIGINT drain gracefully: the first one cancels Context()
	//     (long runs stop at the next cancellation point) and runs the
	//     OnDrain hooks (daemons stop admission and finish in-flight work);
	//     the main function then flushes its reports and exits normally. A
	//     second one force-quits.
	// The goroutine ranges over a local so Close clearing s.sigCh races
	// with nothing.
	sigCh := make(chan os.Signal, 2)
	s.sigCh = sigCh
	signal.Notify(sigCh, syscall.SIGQUIT, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		draining := false
		for sig := range sigCh {
			if sig == syscall.SIGQUIT {
				s.Observer.AutoDump("SIGQUIT")
				os.Exit(2)
			}
			if draining {
				fmt.Fprintf(os.Stderr, "%s: %s again, force quitting\n", component, sig)
				os.Exit(1)
			}
			draining = true
			fmt.Fprintf(os.Stderr, "%s: %s received, draining (send again to force quit)\n",
				component, sig)
			s.drain()
		}
	}()
	return s, nil
}

// Context is canceled by the first SIGTERM/SIGINT (and by Close): pass it
// to long-running work so a drain stops it at the next cancellation point.
func (s *Session) Context() context.Context { return s.ctx }

// OnDrain registers a hook run (in registration order) when the first
// SIGTERM/SIGINT arrives, after Context is canceled. Daemons use it to
// stop admission and finish in-flight work; the hooks complete before the
// signal is considered handled.
func (s *Session) OnDrain(fn func()) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.drainFns = append(s.drainFns, fn)
}

// drain cancels the session context and runs the OnDrain hooks exactly
// once.
func (s *Session) drain() {
	s.drainOnce.Do(func() {
		s.cancel()
		s.drainMu.Lock()
		fns := append([]func(){}, s.drainFns...)
		s.drainMu.Unlock()
		for _, fn := range fns {
			fn()
		}
	})
}

// hostAddr rewrites a wildcard listen address ("[::]:8080") to a
// dialable localhost form for the printed hint.
func hostAddr(addr string) string {
	if rest, ok := strings.CutPrefix(addr, "[::]"); ok {
		return "localhost" + rest
	}
	if rest, ok := strings.CutPrefix(addr, "0.0.0.0"); ok {
		return "localhost" + rest
	}
	return addr
}

// Close stops the introspection server, disarms the signal handler and
// closes the flight-dump file. Safe on a nil session.
func (s *Session) Close() {
	if s == nil {
		return
	}
	if s.sigCh != nil {
		signal.Stop(s.sigCh)
		close(s.sigCh)
		s.sigCh = nil
	}
	if s.cancel != nil {
		s.cancel()
	}
	if s.scraper != nil {
		s.scraper.Stop()
		s.scraper = nil
	}
	if s.server != nil {
		_ = s.server.Close()
		s.server = nil
	}
	if s.flightF != nil {
		s.Observer.SetFlightSink(nil)
		_ = s.flightF.Close()
		s.flightF = nil
	}
}

// StartProgress renders a live single-line view of the observer's running
// jobs to w (normally os.Stderr) at ~10 Hz, replacing the per-command
// Progress callback plumbing. The returned stop function halts the ticker
// and terminates the line; call it before printing the report.
func (s *Session) StartProgress(w io.Writer) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		shown := false
		for {
			select {
			case <-done:
				if shown {
					fmt.Fprintln(w)
				}
				return
			case <-tick.C:
				if line := progressLine(s.Observer.Jobs()); line != "" {
					// Pad the rewrite so a shrinking line leaves no tail.
					fmt.Fprintf(w, "\r%-79s", line)
					shown = true
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// progressLine summarizes the most recent running job ("" when idle).
func progressLine(jobs *obsrv.JobTracker) string {
	running := jobs.Running()
	if len(running) == 0 {
		return ""
	}
	j := running[len(running)-1]
	switch j.Kind {
	case "infer":
		line := fmt.Sprintf("%s: %d/%d layers scheduled", j.Name, j.Done, j.Total)
		if j.Detail != "" {
			line += " (" + j.Detail + ")"
		}
		return line
	default:
		line := fmt.Sprintf("tuning %s: %d candidates (%d valid", j.Name, j.Done, j.Valid)
		if j.Failed > 0 {
			line += fmt.Sprintf(", %d failed", j.Failed)
		}
		if j.BestMs > 0 {
			line += fmt.Sprintf(", best %.4g ms", j.BestMs)
		}
		return line + ")"
	}
}

// WriteMetrics reports a metrics snapshot per the -metrics flag value:
// "" does nothing, "-" prints a table to stdout (stderr when
// machineStdout says stdout must stay parseable), anything else writes
// JSON to that file.
func (s *Session) WriteMetrics(machineStdout bool) error {
	out := s.flags.Metrics
	if out == "" {
		return nil
	}
	snap := s.Registry.Snapshot()
	if out == "-" {
		w := os.Stdout
		if machineStdout {
			w = os.Stderr
		}
		fmt.Fprintln(w, "--- metrics ---")
		fmt.Fprint(w, snap.Table())
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	err = snap.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write metrics %s: %w", out, err)
	}
	fmt.Fprintf(os.Stderr, "metrics: %s\n", out)
	return nil
}

// WriteTrace writes a Chrome trace-event JSON file through the caller's
// export function ("" path does nothing), printing the path to stderr.
// The write closure lets each CLI export its own timeline type.
func WriteTrace(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "chrome trace: %s\n", path)
	return nil
}
