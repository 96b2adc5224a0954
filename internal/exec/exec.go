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
	// Trace, when non-nil, records the execution timeline (GEMM calls,
	// transforms, DMA engine intervals) for schedule diagnosis.
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
	// timeline's.
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

type state struct {
	m   *sw26010.Machine
	opt Options
	// The bound program (bind.go): built once per run, private to it.
	scope   ir.Scope
	frame   ir.Frame
	nodes   []node
	codes   []ir.Code
	labels  []string         // when tracing: the DMA statements' labels, by node
	tensors []*tensor.Tensor // by index into the program's declarations
	names   []named          // SPM buffers and reply words
	// start/extent are dma's scratch for the evaluated region.
	start, extent []int
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
			var t *tensor.Tensor
			var err error
			if opt.Functional {
				t, err = tensor.NewWithLayout(decl.Name, decl.Dims, decl.Layout)
			} else {
				// Timed-only runs never touch data; keep big workspaces
				// (im2col matrices, Winograd planes) virtual.
				t, err = tensor.NewVirtual(decl.Name, decl.Dims, decl.Layout)
			}
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
		if len(t.Dims) != len(decl.Dims) {
			return Result{}, fmt.Errorf("exec: tensor %q rank %d, declared %d", decl.Name, len(t.Dims), len(decl.Dims))
		}
		for d := range decl.Dims {
			if t.Dims[d] != decl.Dims[d] {
				return Result{}, fmt.Errorf("exec: tensor %q dims %v, declared %v", decl.Name, t.Dims, decl.Dims)
			}
		}
		if decl.Layout != nil && !hasLayout(t, decl.Dims, decl.Layout) {
			// The schedule chose a storage layout; the bound tensor must
			// actually have it, or the DMA timing would be fiction.
			want, err := tensor.NewVirtual(decl.Name, decl.Dims, decl.Layout)
			if err != nil {
				return Result{}, fmt.Errorf("exec: tensor %q: %w", decl.Name, err)
			}
			return Result{}, fmt.Errorf("exec: tensor %q bound with strides %v, schedule chose layout %v (strides %v)",
				decl.Name, t.Strides, decl.Layout, want.Strides)
		}
		if decl.Output && opt.Functional {
			t.Zero()
		}
		st.tensors[i] = t
	}
	st.bind(p)
	if p.DispatchOverheadSeconds > 0 {
		st.m.AdvanceCompute(p.DispatchOverheadSeconds)
	}
	if err := st.run(0, int32(len(p.Body))); err != nil {
		return Result{}, fmt.Errorf("exec %s: %w", p.Name, err)
	}
	if n := st.m.OutstandingDMA(); n != 0 {
		return Result{}, fmt.Errorf("exec %s: %d DMA transfers never waited for", p.Name, n)
	}
	return Result{Seconds: st.m.Elapsed() - base, Counters: st.m.Counters}, nil
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
	binds := map[string]*tensor.Tensor{}
	for _, decl := range p.Tensors {
		if decl.Scratch {
			continue
		}
		t, err := tensor.NewVirtual(decl.Name, decl.Dims, decl.Layout)
		if err != nil {
			return nil, err
		}
		binds[decl.Name] = t
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

func (st *state) run(lo, hi int32) error {
	for i := lo; i < hi; i++ {
		if err := st.stmt(i); err != nil {
			return err
		}
	}
	return nil
}

// eval computes the i-th code of the bound program.
func (st *state) eval(i int32) int64 { return st.frame.Eval(st.codes[i]) }

func (st *state) stmt(i int32) error {
	n := &st.nodes[i]
	switch x := n.s.(type) {
	case *ir.Comment:
		return nil
	case *ir.Assign:
		*st.frame.Var(int(n.c)) = ir.Var{Val: st.eval(n.code), Bound: true}
		st.m.AdvanceCompute(sw26010.Seconds(assignCycles))
		return nil
	case *ir.For:
		extent := st.eval(n.code)
		if extent < 0 {
			return fmt.Errorf("loop %s: negative extent %d", x.Iter, extent)
		}
		v := st.frame.Var(int(n.c))
		saved := *v // the loop shadows an outer variable of the same name
		iter := func(i int64) error {
			*v = ir.Var{Val: i, Bound: true}
			st.m.AdvanceCompute(sw26010.Seconds(loopIterCycles))
			return st.run(n.a, n.b)
		}
		if st.opt.FastLoops && !st.opt.Functional && extent >= fastLoopThreshold {
			for i := int64(0); i < 2; i++ {
				if err := iter(i); err != nil {
					return err
				}
			}
			snap := st.m.Snapshot()
			if err := iter(2); err != nil {
				return err
			}
			st.m.FastForward(snap, extent-4) // skip 3 .. extent-2
			if err := iter(extent - 1); err != nil {
				return err
			}
		} else {
			for i := int64(0); i < extent; i++ {
				if err := iter(i); err != nil {
					return err
				}
			}
		}
		*v = saved
		return nil
	case *ir.If:
		st.m.AdvanceCompute(sw26010.Seconds(branchCycles))
		if x.Cond.Op.Holds(st.eval(n.code), st.eval(n.code+1)) {
			return st.run(n.a, n.b)
		}
		return st.run(n.b, n.c)
	case *ir.AllocSPM:
		elems := st.eval(n.code)
		buf, err := st.m.SPM().Alloc(x.Buf, int(elems))
		if err != nil {
			return err
		}
		st.names[n.a].buf = buf
		st.m.NoteSPMUsage()
		return nil
	case *ir.FreeSPM:
		st.names[n.a].buf = nil
		return st.m.SPM().Free(x.Buf)
	case *ir.RegionMove:
		// Un-inferred moves execute as a synchronous DMA (issue + wait).
		if err := st.dma(i, x); err != nil {
			return err
		}
		return st.wait(n.c, 1)
	case *ir.DMAOp:
		return st.dma(i, &x.Move)
	case *ir.DMAWait:
		return st.wait(n.c, int(st.eval(n.code)))
	case *ir.Gemm:
		return st.gemm(n, x)
	case *ir.Transform:
		return st.transform(n, x)
	}
	return fmt.Errorf("unknown statement %T", n.s)
}

func (st *state) wait(slot int32, times int) error {
	r := &st.names[slot]
	if times <= 0 {
		return fmt.Errorf("dma_wait %s x%d: count must be positive", r.name, times)
	}
	if r.issued < times {
		return fmt.Errorf("dma_wait %s x%d: only %d outstanding", r.name, times, r.issued)
	}
	r.issued -= times
	// Tracing records exposed (non-hidden) wait time as a stall interval: the
	// part of the timeline where the compute channel sat blocked on the engine.
	t0, stall0 := st.m.Now(), st.m.Counters.StallSeconds
	err := st.m.WaitDMA(r.name, times)
	if d := st.m.Counters.StallSeconds - stall0; st.opt.Trace != nil && err == nil && d > 0 {
		st.opt.Trace.Add(trace.KindWait, r.name, t0, d)
	}
	return err
}

func (st *state) buffer(slot int32) (*sw26010.SPMBuffer, error) {
	b := st.names[slot]
	if b.buf == nil {
		return nil, fmt.Errorf("SPM buffer %q not allocated", b.name)
	}
	return b.buf, nil
}

// dma executes one DMA operation: the functional scatter/gather plus the
// transaction-level timing derived from the geometry of the region's
// flattened main-memory access pattern (the timed path allocates nothing).
func (st *state) dma(i int32, mv *ir.RegionMove) error {
	n := &st.nodes[i]
	if n.a < 0 {
		return fmt.Errorf("dma: unknown tensor %q", mv.Tensor)
	}
	t := st.tensors[n.a]
	buf, err := st.buffer(n.b)
	if err != nil {
		return fmt.Errorf("dma: %w", err)
	}
	nd := t.Rank()
	if len(mv.Start) != nd || len(mv.Extent) != nd {
		return fmt.Errorf("dma: region rank %d/%d vs tensor %s rank %d", len(mv.Start), len(mv.Extent), t.Name, nd)
	}
	st.start, st.extent = st.start[:0], st.extent[:0]
	for d := int32(0); d < int32(nd); d++ {
		st.start = append(st.start, int(st.eval(n.code+d)))
		st.extent = append(st.extent, int(st.eval(n.code+int32(nd)+d)))
	}
	if err := tensor.CheckRegion(t, st.start, st.extent); err != nil {
		return fmt.Errorf("dma %s: %w", mv.Tensor, err)
	}
	region := tensor.Region{Start: st.start, Extent: st.extent}
	if st.opt.Functional {
		if err := st.moveData(t, region, buf, n, mv); err != nil {
			return err
		}
	}
	// One engine request covers the region's blocks (uniform geometry).
	first, descs, err := region.Geometry(t)
	if err != nil {
		return fmt.Errorf("dma %s: %w", mv.Tensor, err)
	}
	reply := &st.names[n.c]
	if err := st.m.IssueDMA(reply.name, dmaRequest(first, descs*first.Count, mv.Dir != ir.Get)); err != nil {
		return err
	}
	if st.opt.Trace != nil {
		start, done := st.m.LastDMA()
		st.opt.Trace.Add(trace.KindDMA, st.labels[i], start, done-start)
	}
	reply.issued++
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
// and an SPM frame (packed to the region unless the move gives strides).
func (st *state) moveData(t *tensor.Tensor, r tensor.Region, buf *sw26010.SPMBuffer, n *node, mv *ir.RegionMove) error {
	nd := t.Rank()
	// The move's codes: start and extent per dimension, BufOff, FrameStride.
	bufOff := int(st.eval(n.code + 2*int32(nd)))
	frame := packedStrides(r.Extent)
	if mv.FrameStride != nil {
		strides := st.codes[n.code+2*int32(nd)+1:][:len(mv.FrameStride)]
		for d := range frame {
			frame[d] = int(st.frame.Eval(strides[d]))
		}
	}
	// Bounds check the frame footprint.
	maxOff := bufOff
	for d := 0; d < nd; d++ {
		maxOff += (r.Extent[d] - 1) * frame[d]
	}
	if maxOff >= len(buf.Data) || bufOff < 0 {
		return fmt.Errorf("dma: frame [%d..%d] exceeds SPM buffer %s (%d elems)", bufOff, maxOff, buf.Name, len(buf.Data))
	}
	var rec func(d, memOff, spmOff int)
	rec = func(d, memOff, spmOff int) {
		if d == nd {
			switch mv.Dir {
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
	return nil
}

func packedStrides(extent []int) []int {
	out := make([]int, len(extent))
	s := 1
	for d := len(extent) - 1; d >= 0; d-- {
		out[d] = s
		s *= extent[d]
	}
	return out
}

// gemm runs a bound Gemm; its codes are M, N, K, LDA, LDB, LDC, AOff, BOff,
// COff and its buffer slots A, B, C.
func (st *state) gemm(n *node, x *ir.Gemm) error {
	spec := primitives.GemmSpec{
		M:      int(st.eval(n.code)),
		N:      int(st.eval(n.code + 1)),
		K:      int(st.eval(n.code + 2)),
		LDA:    int(st.eval(n.code + 3)),
		LDB:    int(st.eval(n.code + 4)),
		LDC:    int(st.eval(n.code + 5)),
		ATrans: x.ATrans, BTrans: x.BTrans,
		Vec: x.Vec, Accumulate: x.Accumulate, Specialized: x.Specialized,
	}
	secs, err := primitives.GemmTime(spec)
	if err != nil {
		return fmt.Errorf("gemm: %w", err)
	}
	if st.opt.Trace != nil {
		st.opt.Trace.Add(trace.KindGemm,
			fmt.Sprintf("%dx%dx%d", spec.M, spec.N, spec.K), st.m.Now(), secs)
	}
	st.m.AdvanceCompute(secs)
	st.m.Counters.GemmCalls++
	st.m.Counters.Flops += spec.FLOPs()

	if st.opt.Functional {
		var abc [3][]float32
		for k, slot := range [3]int32{n.a, n.b, n.c} {
			if abc[k], err = st.operand("gemm", slot, n.code+6+int32(k), 0); err != nil {
				return err
			}
		}
		if err := primitives.Gemm(spec, abc[0], abc[1], abc[2]); err != nil {
			return fmt.Errorf("gemm: %w", err)
		}
	}
	return nil
}

// operand resolves a functional primitive's operand: the SPM buffer from the
// offset its code gives, which must leave span elements inside the buffer.
func (st *state) operand(what string, slot, code int32, span int) ([]float32, error) {
	buf, err := st.buffer(slot)
	if err != nil {
		return nil, err
	}
	off := int(st.eval(code))
	if off < 0 || off > len(buf.Data) || off+span > len(buf.Data) {
		return nil, fmt.Errorf("%s: [%d,%d) out of SPM buffer %s (%d elems)", what, off, off+span, buf.Name, len(buf.Data))
	}
	return buf.Data[off:], nil
}

// transform runs a bound Transform; its codes are SrcOff, DstOff and then
// Args, its buffer slots Src and Dst.
func (st *state) transform(n *node, x *ir.Transform) error {
	st.m.Counters.TransformOps++
	if st.opt.Trace != nil {
		t0 := st.m.Now()
		defer func() {
			st.opt.Trace.Add(trace.KindTransform, x.Kind.String(), t0, st.m.Now()-t0)
		}()
	}
	args := st.codes[n.code+2:][:len(x.Args)]
	arg := func(i int) int { return int(st.frame.Eval(args[i])) }
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
	case ir.WinoInputSlab:
		nslabs, tilesC, ci, b := arg(0), arg(1), arg(2), arg(3)
		kernel = func(src, dst []float32) error { return primitives.WinoInputSlab(src, dst, nslabs, tilesC, ci, b) }
	case ir.WinoOutputSlab:
		nslabs, tilesC, b := arg(0), arg(1), arg(2)
		kernel = func(src, dst []float32) error { return primitives.WinoOutputSlab(src, dst, nslabs, tilesC, b) }
	default: // a Winograd tile kind: TransformTime knew it
		cnt := arg(0)
		tile := primitives.WinoOutputTransform
		switch x.Kind {
		case ir.WinoInputTile:
			tile = primitives.WinoInputTransform
		case ir.WinoFilterTile:
			tile = primitives.WinoFilterTransform
		}
		kernel = func(src, dst []float32) error { return tile(src, dst, cnt) }
	}
	var src []float32
	if x.Kind != ir.ZeroFill { // which has no source
		if src, err = st.operand(x.Kind.String(), n.a, n.code, span); err != nil {
			return err
		}
	}
	dst, err := st.operand(x.Kind.String(), n.b, n.code+1, span)
	if err != nil {
		return err
	}
	return kernel(src, dst)
}
