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
	m       *sw26010.Machine
	opt     Options
	env     ir.Env
	tensors map[string]*tensor.Tensor
	spm     map[string]*sw26010.SPMBuffer
	replies map[string]int // outstanding issue counts per reply word
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
	st := &state{
		m:       newMachine(opt),
		opt:     opt,
		env:     ir.Env{},
		tensors: map[string]*tensor.Tensor{},
		spm:     map[string]*sw26010.SPMBuffer{},
		replies: map[string]int{},
	}
	base := st.m.Now()
	for _, decl := range p.Tensors {
		if decl.Scratch {
			layout := decl.Layout
			if layout == nil {
				layout = identityPerm(len(decl.Dims))
			}
			var t *tensor.Tensor
			var err error
			if opt.Functional {
				t, err = tensor.NewWithLayout(decl.Name, decl.Dims, layout)
			} else {
				// Timed-only runs never touch data; keep big workspaces
				// (im2col matrices, Winograd planes) virtual.
				t, err = tensor.NewVirtual(decl.Name, decl.Dims, layout)
			}
			if err != nil {
				return Result{}, fmt.Errorf("exec: scratch %s: %w", decl.Name, err)
			}
			st.tensors[decl.Name] = t
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
		if decl.Layout != nil {
			// The schedule chose a storage layout; the bound tensor must
			// actually have it, or the DMA timing would be fiction.
			want, err := tensor.NewVirtual(decl.Name, decl.Dims, decl.Layout)
			if err != nil {
				return Result{}, fmt.Errorf("exec: tensor %q: %w", decl.Name, err)
			}
			for d := range want.Strides {
				if want.Strides[d] != t.Strides[d] {
					return Result{}, fmt.Errorf("exec: tensor %q bound with strides %v, schedule chose layout %v (strides %v)",
						decl.Name, t.Strides, decl.Layout, want.Strides)
				}
			}
		}
		if decl.Output && opt.Functional {
			t.Zero()
		}
		st.tensors[decl.Name] = t
	}
	if p.DispatchOverheadSeconds > 0 {
		st.m.AdvanceCompute(p.DispatchOverheadSeconds)
	}
	if err := st.run(p.Body); err != nil {
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

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
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
		layout := decl.Layout
		if layout == nil {
			layout = identityPerm(len(decl.Dims))
		}
		t, err := tensor.NewVirtual(decl.Name, decl.Dims, layout)
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

func (st *state) run(body []ir.Stmt) error {
	for _, s := range body {
		if err := st.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (st *state) stmt(s ir.Stmt) error {
	switch x := s.(type) {
	case *ir.Comment:
		return nil
	case *ir.Assign:
		st.env[x.Var] = x.Val.Eval(st.env)
		st.m.AdvanceCompute(sw26010.Seconds(assignCycles))
		return nil
	case *ir.For:
		extent := x.Extent.Eval(st.env)
		if extent < 0 {
			return fmt.Errorf("loop %s: negative extent %d", x.Iter, extent)
		}
		saved, had := st.env[x.Iter]
		iter := func(i int64) error {
			st.env[x.Iter] = i
			st.m.AdvanceCompute(sw26010.Seconds(loopIterCycles))
			return st.run(x.Body)
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
		if had {
			st.env[x.Iter] = saved
		} else {
			delete(st.env, x.Iter)
		}
		return nil
	case *ir.If:
		st.m.AdvanceCompute(sw26010.Seconds(branchCycles))
		if x.Cond.Eval(st.env) {
			return st.run(x.Then)
		}
		return st.run(x.Else)
	case *ir.AllocSPM:
		elems := x.Elems.Eval(st.env)
		buf, err := st.m.SPM().Alloc(x.Buf, int(elems))
		if err != nil {
			return err
		}
		st.spm[x.Buf] = buf
		st.m.NoteSPMUsage()
		return nil
	case *ir.FreeSPM:
		delete(st.spm, x.Buf)
		return st.m.SPM().Free(x.Buf)
	case *ir.RegionMove:
		// Un-inferred moves execute as a synchronous DMA (issue + wait).
		if err := st.dma(x, "__sync"); err != nil {
			return err
		}
		return st.wait("__sync", 1)
	case *ir.DMAOp:
		return st.dma(&x.Move, x.Reply)
	case *ir.DMAWait:
		return st.wait(x.Reply, int(x.Times.Eval(st.env)))
	case *ir.Gemm:
		return st.gemm(x)
	case *ir.Transform:
		return st.transform(x)
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (st *state) wait(reply string, times int) error {
	if times <= 0 {
		return fmt.Errorf("dma_wait %s x%d: count must be positive", reply, times)
	}
	if st.replies[reply] < times {
		return fmt.Errorf("dma_wait %s x%d: only %d outstanding", reply, times, st.replies[reply])
	}
	st.replies[reply] -= times
	// Tracing records exposed (non-hidden) wait time as a stall interval: the
	// part of the timeline where the compute channel sat blocked on the engine.
	t0, stall0 := st.m.Now(), st.m.Counters.StallSeconds
	err := st.m.WaitDMA(reply, times)
	if d := st.m.Counters.StallSeconds - stall0; st.opt.Trace != nil && err == nil && d > 0 {
		st.opt.Trace.Add(trace.KindWait, reply, t0, d)
	}
	return err
}

func (st *state) buffer(name string) (*sw26010.SPMBuffer, error) {
	b, ok := st.spm[name]
	if !ok {
		return nil, fmt.Errorf("SPM buffer %q not allocated", name)
	}
	return b, nil
}

// dma executes one DMA operation: the functional scatter/gather plus the
// transaction-level timing derived from the region's flattened main-memory
// access pattern, streamed into a tally (the timed path allocates nothing).
func (st *state) dma(mv *ir.RegionMove, reply string) error {
	t, ok := st.tensors[mv.Tensor]
	if !ok {
		return fmt.Errorf("dma: unknown tensor %q", mv.Tensor)
	}
	buf, err := st.buffer(mv.Buf)
	if err != nil {
		return fmt.Errorf("dma: %w", err)
	}
	nd := t.Rank()
	if len(mv.Start) != nd || len(mv.Extent) != nd {
		return fmt.Errorf("dma: region rank %d/%d vs tensor %s rank %d", len(mv.Start), len(mv.Extent), t.Name, nd)
	}
	st.start, st.extent = st.start[:0], st.extent[:0]
	for d := 0; d < nd; d++ {
		st.start = append(st.start, int(mv.Start[d].Eval(st.env)))
		st.extent = append(st.extent, int(mv.Extent[d].Eval(st.env)))
	}
	if err := tensor.CheckRegion(t, st.start, st.extent); err != nil {
		return fmt.Errorf("dma %s: %w", mv.Tensor, err)
	}
	region := tensor.Region{Start: st.start, Extent: st.extent}
	if st.opt.Functional {
		if err := st.moveData(t, region, buf, mv); err != nil {
			return err
		}
	}
	// One engine request covers the region's blocks (uniform geometry).
	var tally dmaTally
	if err := region.FlattenEach(t, tally.add); err != nil {
		return fmt.Errorf("dma %s: %w", mv.Tensor, err)
	}
	if err := st.m.IssueDMA(reply, tally.request(mv.Dir != ir.Get)); err != nil {
		return err
	}
	if st.opt.Trace != nil {
		start, done := st.m.LastDMA()
		st.opt.Trace.Add(trace.KindDMA, fmt.Sprintf("%s %s", mv.Dir, mv.Tensor), start, done-start)
	}
	st.replies[reply]++
	return nil
}

// dmaTally is what a transfer's timing needs of its flattened pattern: the
// first descriptor (the others differ only in Offset) and the block total.
type dmaTally struct {
	first tensor.Blocks
	total int
}

func (a *dmaTally) add(b tensor.Blocks) {
	if a.total == 0 {
		a.first = b
	}
	a.total += b.Count
}

// request converts the CG-level flattened pattern into a DMA request,
// modelling the 64-way distribution: when there are fewer blocks than CPEs,
// each block is subdivided so all CPEs participate (smaller per-CPE blocks,
// more transaction edges).
func (a dmaTally) request(write bool) sw26010.DMARequest {
	total := a.total
	blockBytes := a.first.Block * 4
	strideBytes := a.first.Stride * 4
	if total < sw26010.NumCPE && blockBytes > sw26010.TransactionBytes {
		split := (sw26010.NumCPE + total - 1) / total
		sub := (a.first.Block + split - 1) / split
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
		OffsetBytes: a.first.Offset * 4,
		Write:       write,
		CPEs:        1, // BlockCount is already the CG aggregate
	}
}

// moveData performs the functional scatter/gather between a tensor region
// and an SPM frame (packed to the region unless the move gives strides).
func (st *state) moveData(t *tensor.Tensor, r tensor.Region, buf *sw26010.SPMBuffer, mv *ir.RegionMove) error {
	nd := t.Rank()
	bufOff := int(mv.BufOff.Eval(st.env))
	frame := packedStrides(r.Extent)
	if mv.FrameStride != nil {
		for d := range frame {
			frame[d] = int(mv.FrameStride[d].Eval(st.env))
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

func (st *state) gemm(x *ir.Gemm) error {
	spec := primitives.GemmSpec{
		M:      int(x.M.Eval(st.env)),
		N:      int(x.N.Eval(st.env)),
		K:      int(x.K.Eval(st.env)),
		LDA:    int(x.LDA.Eval(st.env)),
		LDB:    int(x.LDB.Eval(st.env)),
		LDC:    int(x.LDC.Eval(st.env)),
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
		a, err := st.buffer(x.A)
		if err != nil {
			return err
		}
		b, err := st.buffer(x.B)
		if err != nil {
			return err
		}
		c, err := st.buffer(x.C)
		if err != nil {
			return err
		}
		ao := int(x.AOff.Eval(st.env))
		bo := int(x.BOff.Eval(st.env))
		co := int(x.COff.Eval(st.env))
		if ao < 0 || bo < 0 || co < 0 || ao > len(a.Data) || bo > len(b.Data) || co > len(c.Data) {
			return fmt.Errorf("gemm: operand offset out of range (%d, %d, %d)", ao, bo, co)
		}
		if err := primitives.Gemm(spec, a.Data[ao:], b.Data[bo:], c.Data[co:]); err != nil {
			return fmt.Errorf("gemm: %w", err)
		}
	}
	return nil
}

func (st *state) transform(x *ir.Transform) error {
	st.m.Counters.TransformOps++
	if st.opt.Trace != nil {
		t0 := st.m.Now()
		defer func() {
			st.opt.Trace.Add(trace.KindTransform, x.Kind.String(), t0, st.m.Now()-t0)
		}()
	}
	switch x.Kind {
	case ir.ZeroFill:
		n := int(x.Args[0].Eval(st.env))
		st.m.AdvanceCompute(primitives.ZeroFillTime(n))
		if st.opt.Functional {
			buf, err := st.buffer(x.Dst)
			if err != nil {
				return err
			}
			off := int(x.DstOff.Eval(st.env))
			if off < 0 || off+n > len(buf.Data) {
				return fmt.Errorf("zerofill: [%d,%d) out of %s", off, off+n, x.Dst)
			}
			return primitives.ZeroFill(buf.Data[off:], n)
		}
		return nil
	case ir.CopySPM:
		n := int(x.Args[0].Eval(st.env))
		st.m.AdvanceCompute(primitives.CopySPMTime(n))
		if st.opt.Functional {
			src, err := st.buffer(x.Src)
			if err != nil {
				return err
			}
			dst, err := st.buffer(x.Dst)
			if err != nil {
				return err
			}
			so := int(x.SrcOff.Eval(st.env))
			do := int(x.DstOff.Eval(st.env))
			if so < 0 || do < 0 || so+n > len(src.Data) || do+n > len(dst.Data) {
				return fmt.Errorf("copy_spm: ranges out of bounds")
			}
			return primitives.CopySPM(src.Data[so:], dst.Data[do:], n)
		}
		return nil
	case ir.WinoInputSlab, ir.WinoOutputSlab:
		nslabs := int(x.Args[0].Eval(st.env))
		tilesC := int(x.Args[1].Eval(st.env))
		var b, ci int
		if x.Kind == ir.WinoInputSlab {
			ci = int(x.Args[2].Eval(st.env))
			b = int(x.Args[3].Eval(st.env))
		} else {
			b = int(x.Args[2].Eval(st.env))
		}
		secs, err := primitives.WinoSlabTime(x.Kind.Phase(), nslabs*tilesC*b)
		if err != nil {
			return err
		}
		st.m.AdvanceCompute(secs)
		if !st.opt.Functional {
			return nil
		}
		src, err := st.buffer(x.Src)
		if err != nil {
			return err
		}
		dst, err := st.buffer(x.Dst)
		if err != nil {
			return err
		}
		so := int(x.SrcOff.Eval(st.env))
		do := int(x.DstOff.Eval(st.env))
		if x.Kind == ir.WinoInputSlab {
			return primitives.WinoInputSlab(src.Data[so:], dst.Data[do:], nslabs, tilesC, ci, b)
		}
		return primitives.WinoOutputSlab(src.Data[so:], dst.Data[do:], nslabs, tilesC, b)
	case ir.WinoInputTile, ir.WinoFilterTile, ir.WinoOutputTile:
		cnt := int(x.Args[0].Eval(st.env))
		secs, err := primitives.WinoTransformTime(x.Kind.Phase(), cnt)
		if err != nil {
			return err
		}
		st.m.AdvanceCompute(secs)
		if !st.opt.Functional {
			return nil
		}
		src, err := st.buffer(x.Src)
		if err != nil {
			return err
		}
		dst, err := st.buffer(x.Dst)
		if err != nil {
			return err
		}
		so := int(x.SrcOff.Eval(st.env))
		do := int(x.DstOff.Eval(st.env))
		switch x.Kind {
		case ir.WinoInputTile:
			return primitives.WinoInputTransform(src.Data[so:], dst.Data[do:], cnt)
		case ir.WinoFilterTile:
			return primitives.WinoFilterTransform(src.Data[so:], dst.Data[do:], cnt)
		default:
			return primitives.WinoOutputTransform(src.Data[so:], dst.Data[do:], cnt)
		}
	}
	return fmt.Errorf("unknown transform %v", x.Kind)
}
