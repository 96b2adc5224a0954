// Package exec interprets IR programs against the simulated SW26010 core
// group. It has two modes sharing one timing path:
//
//   - functional: data movement and primitives operate on real float32
//     data, so results can be checked against oracles;
//   - timed-only: arithmetic is skipped, only the clock and counters
//     advance — fast enough for the black-box autotuner to "run" hundreds
//     of schedule candidates.
//
// Timing is identical in both modes (the simulator is deterministic), so
// the black-box tuner's choice never depends on the mode.
package exec

import (
	"fmt"
	"slices"

	"swatop/internal/faults"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/primitives"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// Options controls a run.
type Options struct {
	// Functional computes real data (slower); timed-only otherwise.
	Functional bool
	// FastLoops extrapolates long loops from a few simulated iterations
	// (steady-state fast forward). Only valid with Functional=false; used
	// by the black-box autotuner and large benchmark sweeps. swATOP's
	// lowered nests have uniform interior iterations (only the last
	// iteration differs through its min() boundary extents), so the
	// extrapolation is near-exact.
	FastLoops bool
	// Trace, when non-nil, receives the execution timeline (GEMM calls,
	// transforms, DMA intervals, stalls) on the machine clock, without Args;
	// the inference runtime passes its run's own log and stamps it after.
	Trace *trace.Log
	// Faults, when non-nil, is consulted at the measurement and machine
	// injection points (faults.Measure before the run starts,
	// faults.DMATransfer / faults.ComputeStall inside the machine). Nil in
	// every production run.
	Faults *faults.Injector
	// Machine, when non-nil, runs the program on an existing machine
	// instead of a fresh one: the clock continues from where the previous
	// operator left it and counters accumulate, which is how a network
	// runtime executes many operators as one serialized timeline. The
	// caller owns the machine's fault injector (Faults, if also set, is
	// attached); Result.Seconds is this run's time, not the whole
	// timeline's. A machine may also be Reset between runs and reused: a
	// run on it then reads exactly as one on a fresh machine, and its SPM
	// buffers take the storage earlier runs left.
	Machine *sw26010.Machine
	// Metrics, when non-nil, receives run-level instrumentation
	// (exec_runs_total, exec_run_failures_total, the exec_run_seconds
	// latency histogram and the exec_machine_seconds accumulator). All
	// values are simulated-clock quantities, so they are deterministic.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives structured run events (exec.run /
	// exec.fail / exec.fault). Events are observational only: they never
	// influence timing or results.
	Observer *obsrv.Observer
	// GroupLabel, when non-empty, tags exec.run / exec.fail observer events
	// with the simulated core group executing the program ("group2"). The
	// fleet runtime sets it so interleaved per-group events stay
	// attributable; single-machine runs leave it empty and events are
	// unchanged.
	GroupLabel string
}

// fastLoopThreshold is the minimum extent for fast-forwarding: iterations
// 0..2 run, 3..E-2 are extrapolated from iteration 2, E-1 runs.
const fastLoopThreshold = 10

// Result reports a completed run.
type Result struct {
	// Seconds is the simulated execution time of the operator: the
	// machine-clock advance of this run, so on a shared machine
	// (Options.Machine) it excludes time spent by earlier operators.
	Seconds float64
	// Counters are the machine's activity counters (cumulative when the
	// run reused a machine).
	Counters sw26010.Counters
}

// Machine-level overheads of interpreted control flow.
const (
	loopIterCycles = 6.0
	branchCycles   = 2.0
	assignCycles   = 1.0
)

// state is the timed/functional leaf of the ir walker: one run's machine,
// operands and per-name state.
type state struct {
	m   *sw26010.Machine
	opt Options
	w   *ir.Walker
	// tensors are by index into the program's declarations; bufs, by the
	// walker's name slot, hold each SPM buffer while it is allocated (the
	// machine counts a reply word's outstanding issues).
	tensors []*tensor.Tensor
	bufs    []*sw26010.SPMBuffer
	labels  []string // when tracing: the DMA statements' labels, by statement
	// gemm is the last traced GEMM's M, N, K and label, which the calls of a
	// loop repeat: a fused Winograd nest makes 16 calls per tile, and
	// formatting each label cost a warm VGG16 batch-1 run about 2 450 more
	// allocations.
	gemm struct {
		mnk   [3]int
		label string
	}
}

// Run executes a program. binds maps non-scratch tensor names to concrete
// tensors; scratch tensors are allocated internally; Output tensors are
// zeroed first (operators accumulate from zero).
func Run(p *ir.Program, binds map[string]*tensor.Tensor, opt Options) (Result, error) {
	opt.Metrics.Counter("exec_runs_total").Inc()
	res, err := runProgram(p, binds, opt)
	if err != nil {
		opt.Metrics.Counter("exec_run_failures_total").Inc()
		fields := []obsrv.Field{obsrv.F("program", p.Name), obsrv.F("error", err)}
		if opt.GroupLabel != "" {
			fields = append(fields, obsrv.F("group", opt.GroupLabel))
		}
		opt.Observer.Emit(obsrv.LevelWarn, "exec.fail", fields...)
		return res, err
	}
	opt.Metrics.Histogram("exec_run_seconds", metrics.TimeBuckets...).Observe(res.Seconds)
	opt.Metrics.Gauge("exec_machine_seconds").Add(res.Seconds)
	if opt.Observer.Enabled() {
		fields := []obsrv.Field{obsrv.F("program", p.Name), obsrv.Ms("seconds_ms", res.Seconds),
			obsrv.F("functional", opt.Functional)}
		if opt.GroupLabel != "" {
			fields = append(fields, obsrv.F("group", opt.GroupLabel))
		}
		opt.Observer.Emit(obsrv.LevelDebug, "exec.run", fields...)
	}
	return res, nil
}

func runProgram(p *ir.Program, binds map[string]*tensor.Tensor, opt Options) (Result, error) {
	// The measurement-level injection point: a fired fault rejects the run
	// before the machine starts, like a batch job lost to a flaky node.
	if err := opt.Faults.Fire(faults.Measure); err != nil {
		opt.Observer.Emit(obsrv.LevelWarn, "exec.fault",
			obsrv.F("program", p.Name), obsrv.F("point", "measure"),
			obsrv.F("error", err))
		return Result{}, fmt.Errorf("exec %s: measurement failed: %w", p.Name, err)
	}
	st := &state{m: newMachine(opt), opt: opt, tensors: make([]*tensor.Tensor, len(p.Tensors))}
	base := st.m.Now()
	for i, decl := range p.Tensors {
		if decl.Scratch {
			// Timed-only runs never touch data; keep big workspaces (im2col
			// matrices, Winograd planes) virtual.
			newScratch := tensor.NewVirtual
			if opt.Functional {
				newScratch = tensor.NewWithLayout
			}
			t, err := newScratch(decl.Name, decl.Dims, decl.Layout)
			if err != nil {
				return Result{}, fmt.Errorf("exec: scratch %s: %w", decl.Name, err)
			}
			st.tensors[i] = t
			continue
		}
		t, ok := binds[decl.Name]
		if !ok {
			return Result{}, fmt.Errorf("exec: tensor %q not bound", decl.Name)
		}
		if !slices.Equal(t.Dims, decl.Dims) {
			return Result{}, fmt.Errorf("exec: tensor %q dims %v, declared %v", decl.Name, t.Dims, decl.Dims)
		}
		if decl.Layout != nil && !hasLayout(t, decl.Dims, decl.Layout) {
			// The schedule chose a storage layout; the bound tensor must
			// actually have it, or the DMA timing would be fiction.
			return Result{}, fmt.Errorf("exec: tensor %q bound with strides %v, schedule chose layout %v",
				decl.Name, t.Strides, decl.Layout)
		}
		if decl.Output && opt.Functional {
			t.Zero()
		}
		st.tensors[i] = t
	}
	st.w = bind(p, opt.Machine)
	st.bufs = make([]*sw26010.SPMBuffer, st.w.Names())
	if opt.Trace != nil {
		st.labels = make([]string, st.w.Len())
	}
	if p.DispatchOverheadSeconds > 0 {
		st.m.AdvanceCompute(p.DispatchOverheadSeconds)
	}
	if err := st.w.Run(st); err != nil {
		return Result{}, fmt.Errorf("exec %s: %w", p.Name, err)
	}
	if n := st.m.OutstandingDMA(); n != 0 {
		return Result{}, fmt.Errorf("exec %s: %d DMA transfers never waited for", p.Name, n)
	}
	return Result{Seconds: st.m.Elapsed() - base, Counters: st.m.Counters}, nil
}

// hasLayout reports whether t is stored as dims in perm order (slowest to
// fastest): whether tensor.NewVirtual(dims, perm) succeeds and has t's
// strides.
func hasLayout(t *tensor.Tensor, dims, perm []int) bool {
	if len(perm) != len(dims) {
		return false
	}
	s := 1
	for i := len(perm) - 1; i >= 0; i-- {
		d := perm[i]
		if d < 0 || d >= len(dims) || dims[d] <= 0 || t.Strides[d] != s || slices.Contains(perm[i+1:], d) {
			return false
		}
		s *= dims[d]
	}
	return true
}

// bind returns p's bound form. On a caller's machine that is the walker
// kept with the machine (Machine.Interp), whose arenas so live as long as
// the machine rather than in ir's process-wide pool, where a collection
// leaves them reachable as the pool's victims.
func bind(p *ir.Program, m *sw26010.Machine) *ir.Walker {
	if m == nil {
		return ir.Bind(p)
	}
	if m.Interp == nil {
		m.Interp = new(ir.Walker)
	}
	return m.Interp.(*ir.Walker).Bind(p)
}

func newMachine(opt Options) *sw26010.Machine {
	if opt.Machine != nil {
		if opt.Faults != nil {
			opt.Machine.SetFaults(opt.Faults)
		}
		return opt.Machine
	}
	m := sw26010.NewMachine()
	m.SetFaults(opt.Faults)
	return m
}

// BindVirtual builds data-less operand bindings matching a program's
// declarations and chosen layouts. Timed-only runs (autotuning, large
// benchmarks) never touch tensor data, so no storage is allocated.
func BindVirtual(p *ir.Program) (map[string]*tensor.Tensor, error) {
	ts, err := tensor.NewVirtuals(len(p.Tensors), p.Decl)
	if err != nil {
		return nil, err
	}
	binds := map[string]*tensor.Tensor{}
	for i, decl := range p.Tensors {
		if !decl.Scratch {
			binds[decl.Name] = &ts[i]
		}
	}
	return binds, nil
}

// RunVirtual executes a program on data-less bindings (BindVirtual + Run):
// the one way every timed-only measurement — tuning candidates, re-timed
// winners, baselines, experiment sweeps — runs a program.
func RunVirtual(p *ir.Program, opt Options) (Result, error) {
	binds, err := BindVirtual(p)
	if err != nil {
		return Result{}, err
	}
	return Run(p, binds, opt)
}

// Loop charges each iteration's issue cost and runs every iteration; with
// FastLoops (timed only) it runs iterations 0..2 and the last and
// fast-forwards the machine over 3..extent-2 by iteration 2's delta.
func (st *state) Loop(extent int64, body ir.Body) error {
	fast := st.opt.FastLoops && !st.opt.Functional && extent >= fastLoopThreshold
	var snap sw26010.Snapshot
	for i := int64(0); i < extent; i++ {
		if fast && i == 2 {
			snap = st.m.Snapshot()
		}
		st.m.AdvanceCompute(sw26010.Seconds(loopIterCycles))
		if err := body.Run(i); err != nil {
			return err
		}
		if fast && i == 2 {
			st.m.FastForward(snap, extent-4)
			i = extent - 2
		}
	}
	return nil
}

func (st *state) Branch(arm ir.Body) error {
	st.m.AdvanceCompute(sw26010.Seconds(branchCycles))
	return arm.Run(0)
}

func (st *state) Assign() { st.m.AdvanceCompute(sw26010.Seconds(assignCycles)) }

func (st *state) Alloc(buf int, elems int64) error {
	b, err := st.m.SPM().Alloc(st.w.Name(buf), int(elems))
	if err != nil {
		return err
	}
	st.bufs[buf] = b
	st.m.NoteSPMUsage()
	return nil
}

func (st *state) Free(buf int) error {
	st.bufs[buf] = nil
	return st.m.SPM().Free(st.w.Name(buf))
}

func (st *state) Wait(reply int, times int64) error {
	name := st.w.Name(reply)
	// Tracing records exposed (non-hidden) wait time as a stall interval: the
	// part of the timeline where the compute channel sat blocked on the engine.
	t0, stall0 := st.m.Now(), st.m.Counters.StallSeconds
	err := st.m.WaitDMA(name, int(times))
	if d := st.m.Counters.StallSeconds - stall0; st.opt.Trace != nil && err == nil && d > 0 {
		st.opt.Trace.Add(trace.KindWait, name, t0, d)
	}
	return err
}

func (st *state) buffer(slot int) (*sw26010.SPMBuffer, error) {
	if b := st.bufs[slot]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("SPM buffer %q not allocated", st.w.Name(slot))
}

// Move executes one DMA operation: the functional scatter/gather plus the
// transaction-level timing derived from the geometry of the region's
// flattened main-memory access pattern (the timed path allocates nothing).
func (st *state) Move(x *ir.RegionMove, mv *ir.Op) error {
	t := st.tensors[mv.A]
	buf, err := st.buffer(mv.B)
	if err != nil {
		return fmt.Errorf("dma: %w", err)
	}
	if err := tensor.CheckRegion(t, mv.Start(), mv.Extent()); err != nil {
		return fmt.Errorf("dma %s: %w", x.Tensor, err)
	}
	region := tensor.Region{Start: mv.Start(), Extent: mv.Extent()}
	// Timed and functional runs accept the same moves: the frame must fit
	// the buffer whether or not data is copied.
	if first, last := mv.Frame(nil); first < 0 || last >= buf.Elems {
		return fmt.Errorf("dma: frame [%d..%d] exceeds SPM buffer %s (%d elems)", first, last, buf.Name, buf.Elems)
	}
	if st.opt.Functional {
		moveData(t, region, buf, x, mv)
	}
	// One engine request covers the region's blocks (uniform geometry).
	first, descs, err := region.Geometry(t)
	if err != nil {
		return fmt.Errorf("dma %s: %w", x.Tensor, err)
	}
	if err := st.m.IssueDMA(st.w.Name(mv.C), dmaRequest(first, descs*first.Count, x.Dir != ir.Get)); err != nil {
		return err
	}
	if st.labels != nil {
		// The trace label is the statement's, not the transfer's: format it
		// once.
		l := &st.labels[mv.Index]
		if *l == "" {
			*l = x.Dir.String() + " " + x.Tensor
		}
		start, done := st.m.LastDMA()
		st.opt.Trace.Add(trace.KindDMA, *l, start, done-start)
	}
	return nil
}

// dmaRequest converts the CG-level flattened pattern — its first descriptor
// (the others differ only in Offset) and its block total — into a DMA
// request, modelling the 64-way distribution: when there are fewer blocks
// than CPEs, each block is subdivided so all CPEs participate (smaller
// per-CPE blocks, more transaction edges).
func dmaRequest(first tensor.Blocks, total int, write bool) sw26010.DMARequest {
	blockBytes := first.Block * 4
	strideBytes := first.Stride * 4
	if total < sw26010.NumCPE && blockBytes > sw26010.TransactionBytes {
		split := (sw26010.NumCPE + total - 1) / total
		sub := (first.Block + split - 1) / split
		blockBytes = sub * 4
		strideBytes = blockBytes
		total *= split
	}
	if strideBytes < blockBytes {
		strideBytes = blockBytes
	}
	return sw26010.DMARequest{
		BlockBytes:  blockBytes,
		BlockCount:  total,
		StrideBytes: strideBytes,
		OffsetBytes: first.Offset * 4,
		Write:       write,
		CPEs:        1, // BlockCount is already the CG aggregate
	}
}

// moveData performs the functional scatter/gather between a tensor region
// and an SPM frame that Move has checked.
func moveData(t *tensor.Tensor, r tensor.Region, buf *sw26010.SPMBuffer, x *ir.RegionMove, mv *ir.Op) {
	frame := make([]int, t.Rank())
	bufOff, _ := mv.Frame(frame)
	nd := len(frame)
	var rec func(d, memOff, spmOff int)
	rec = func(d, memOff, spmOff int) {
		if d == nd {
			switch x.Dir {
			case ir.Get:
				buf.Data[spmOff] = t.Data[memOff]
			case ir.Put:
				t.Data[memOff] = buf.Data[spmOff]
			case ir.PutAcc:
				t.Data[memOff] += buf.Data[spmOff]
			}
			return
		}
		mo := memOff + r.Start[d]*t.Strides[d]
		so := spmOff
		for i := 0; i < r.Extent[d]; i++ {
			rec(d+1, mo, so)
			mo += t.Strides[d]
			so += frame[d]
		}
	}
	rec(0, 0, bufOff)
}

func (st *state) Gemm(x *ir.Gemm, op *ir.Op) error {
	spec := primitives.GemmSpec{
		M:      int(op.Arg(0)),
		N:      int(op.Arg(1)),
		K:      int(op.Arg(2)),
		LDA:    int(op.Arg(3)),
		LDB:    int(op.Arg(4)),
		LDC:    int(op.Arg(5)),
		ATrans: x.ATrans, BTrans: x.BTrans,
		Vec: x.Vec, Accumulate: x.Accumulate, Specialized: x.Specialized,
	}
	secs, err := primitives.GemmTime(spec)
	if err != nil {
		return fmt.Errorf("gemm: %w", err)
	}
	if st.opt.Trace != nil {
		if mnk := [3]int{spec.M, spec.N, spec.K}; mnk != st.gemm.mnk || st.gemm.label == "" {
			st.gemm.mnk, st.gemm.label = mnk, fmt.Sprintf("%dx%dx%d", spec.M, spec.N, spec.K)
		}
		st.opt.Trace.Add(trace.KindGemm, st.gemm.label, st.m.Now(), secs)
	}
	st.m.AdvanceCompute(secs)
	st.m.Counters.GemmCalls++
	st.m.Counters.Flops += spec.FLOPs()

	if st.opt.Functional {
		var abc [3][]float32
		for k, slot := range [3]int{op.A, op.B, op.C} {
			if abc[k], err = st.operand("gemm", slot, int(op.Arg(6+k)), 0); err != nil {
				return err
			}
		}
		if err := primitives.Gemm(spec, abc[0], abc[1], abc[2]); err != nil {
			return fmt.Errorf("gemm: %w", err)
		}
	}
	return nil
}

// operand resolves a functional primitive's operand: the SPM buffer from
// offset off, which must leave span elements inside the buffer.
func (st *state) operand(what string, slot, off, span int) ([]float32, error) {
	buf, err := st.buffer(slot)
	if err != nil {
		return nil, err
	}
	if off < 0 || off > buf.Elems || off+span > buf.Elems {
		return nil, fmt.Errorf("%s: [%d,%d) out of SPM buffer %s (%d elems)", what, off, off+span, buf.Name, buf.Elems)
	}
	return buf.Data[off:], nil
}

func (st *state) Transform(x *ir.Transform, op *ir.Op) error {
	st.m.Counters.TransformOps++
	if st.opt.Trace != nil {
		t0 := st.m.Now()
		defer func() {
			st.opt.Trace.Add(trace.KindTransform, x.Kind.String(), t0, st.m.Now()-t0)
		}()
	}
	arg := func(i int) int { return int(op.Arg(2 + i)) }
	secs, err := primitives.TransformTime(x, arg)
	if err != nil {
		return err
	}
	st.m.AdvanceCompute(secs)
	if !st.opt.Functional {
		return nil
	}
	// Per kind: the kernel and how many elements it touches from each
	// operand's offset (the Winograd kernels check their own spans).
	var (
		span   int
		kernel func(src, dst []float32) error
	)
	switch x.Kind {
	case ir.ZeroFill:
		span = arg(0)
		kernel = func(_, dst []float32) error { return primitives.ZeroFill(dst, span) }
	case ir.CopySPM:
		span = arg(0)
		kernel = func(src, dst []float32) error { return primitives.CopySPM(src, dst, span) }
	case ir.ReLU:
		span = arg(0)
		kernel = func(_, dst []float32) error { return primitives.ReLU(dst, span) }
	case ir.WinoInputSlab:
		nslabs, rows, cols, ci, b := arg(0), primitives.SlabRows(x, arg), arg(1), arg(2), arg(3)
		kernel = func(src, dst []float32) error { return primitives.WinoInputSlab(src, dst, nslabs, rows, cols, ci, b) }
	case ir.WinoOutputSlab:
		nslabs, rows, cols, b := arg(0), primitives.SlabRows(x, arg), arg(1), arg(2)
		kernel = func(src, dst []float32) error { return primitives.WinoOutputSlab(src, dst, nslabs, rows, cols, b) }
	default: // WinoFilterTile: the kinds TransformTime knows end here
		cnt := arg(0)
		kernel = func(src, dst []float32) error { return primitives.WinoFilterTransform(src, dst, cnt) }
	}
	var src []float32
	if x.Kind != ir.ZeroFill && x.Kind != ir.ReLU { // which read no source
		if src, err = st.operand(x.Kind.String(), op.A, int(op.Arg(0)), span); err != nil {
			return err
		}
	}
	dst, err := st.operand(x.Kind.String(), op.B, int(op.Arg(1)), span)
	if err != nil {
		return err
	}
	return kernel(src, dst)
}
