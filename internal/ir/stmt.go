package ir

import "fmt"

// Stmt is a statement node of the IR AST.
type Stmt interface{ isStmt() }

// Program is a complete operator implementation: the statement list plus
// the declarations the executor and code generator need.
type Program struct {
	Name string
	// Tensors declares the main-memory operands by name; the executor
	// binds them to concrete tensors at run time.
	Tensors []TensorDecl
	// Body is the statement list.
	Body []Stmt
	// DispatchOverheadSeconds is fixed per-invocation cost outside the
	// statement list: library-call dispatch (athread spawn, workspace
	// setup) of hand-written routines. swATOP-generated operators compile
	// to one fused kernel and carry none.
	DispatchOverheadSeconds float64
}

// TensorDecl declares a main-memory tensor operand.
type TensorDecl struct {
	Name string
	Dims []int
	// Output marks tensors the operator writes (cleared before runs when
	// accumulation starts from zero).
	Output bool
	// Scratch marks main-memory workspace tensors the executor allocates
	// itself (im2col matrices, Winograd planes, padded copies).
	Scratch bool
	// Layout is the storage permutation (slowest→fastest); nil is
	// row-major. For non-scratch tensors the executor validates that the
	// bound tensor matches.
	Layout []int
}

// For is a counted loop: Iter ranges over [0, Extent).
type For struct {
	Iter   string
	Extent Expr
	Body   []Stmt
}

// If is a two-armed conditional.
type If struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

// Assign introduces or updates a scalar local (used by prefetch index
// inference: next_i = ...).
type Assign struct {
	Var string
	Val Expr
}

// AllocSPM reserves a core-group-level SPM buffer of Elems float32 values
// for the remainder of the program (the code generator coalesces all
// allocations into one region).
type AllocSPM struct {
	Buf   string
	Elems Expr
}

// FreeSPM releases a buffer.
type FreeSPM struct {
	Buf string
}

// MoveDir is the direction/semantics of a data movement.
type MoveDir int

// Movement directions.
const (
	// Get copies main memory → SPM.
	Get MoveDir = iota
	// Put copies SPM → main memory.
	Put
	// PutAcc accumulates SPM into main memory (used when a reduction loop
	// is split across DMA round trips).
	PutAcc
)

func (d MoveDir) String() string {
	switch d {
	case Get:
		return "get"
	case Put:
		return "put"
	case PutAcc:
		return "put+"
	}
	return "?"
}

// RegionMove is the *abstract* data-movement node the lowering emits: move a
// hyper-rectangular region of a main-memory tensor into/out of an SPM
// buffer. Users never write DMA in the DSL (§4.5.1); the DMA-inference pass
// turns RegionMoves into concrete DMAOp/DMAWait pairs.
type RegionMove struct {
	Tensor string // main-memory tensor name
	Dir    MoveDir
	Start  []Expr // per-dimension region start
	Extent []Expr // per-dimension region extent
	Buf    string // SPM buffer
	BufOff Expr   // element offset into the SPM buffer
	// FrameStride gives the SPM-side stride per tensor dimension: region
	// element (i0..ik) lands at BufOff + Σ i_d·FrameStride[d]. nil means
	// packed row-major over the region extents.
	FrameStride []Expr
}

// DMAOp is an inferred asynchronous DMA operation (§4.1's swDMA): the
// functional payload is the embedded RegionMove; Reply names the reply word
// a DMAWait synchronizes on.
type DMAOp struct {
	Move  RegionMove
	Reply string
}

// DMAAttrs are the printed per-CPE descriptor attributes of Fig. 4 (right):
// offset/block/stride as formulas over the CPE's rid/cid. They do not affect
// simulation or estimation, which derive exact geometry from the region, so
// they are derived only when code is printed.
type DMAAttrs struct {
	Offset string
	Block  string
	Stride string
	Size   string
}

// Attrs derives the move's printed descriptor attributes: the core-group
// transfer is divided across the 8×8 CPE grid; each CPE's offset depends on
// its row/column id.
func (mv *RegionMove) Attrs() DMAAttrs {
	total := Expr(Const(1))
	for _, e := range mv.Extent {
		total = Mul(total, e)
	}
	// The innermost region dimension forms the contiguous block; outer
	// dimensions stride. The per-CPE share is total/64, distributed
	// block-wise over (rid, cid).
	inner := mv.Extent[len(mv.Extent)-1]
	return DMAAttrs{
		Offset: fmt.Sprintf("((rid*8+cid) * (%s))/64", total),
		Block:  inner.String(),
		Stride: fmt.Sprintf("stride(%s)", mv.Tensor),
		Size:   fmt.Sprintf("(%s)/64", total),
	}
}

// DMAWait blocks until Times transfers under Reply have completed
// (§4.1's swDMAWait).
type DMAWait struct {
	Reply string
	Times Expr
}

// VecDim selects the vectorized dimension of the GEMM primitive (§4.1).
type VecDim int

// Vectorization choices.
const (
	// VecM vectorizes along the M loop.
	VecM VecDim = iota
	// VecN vectorizes along the N loop.
	VecN
)

func (v VecDim) String() string {
	if v == VecM {
		return "vecM"
	}
	return "vecN"
}

// Gemm invokes the spm_gemm tensorized primitive: C += A × B on SPM-resident
// operands. Matrices are column-major with explicit leading dimensions;
// ATrans/BTrans select the transposed-storage variants (together with
// VecDim these span the paper's eight assembly kernel variants).
type Gemm struct {
	A, B, C          string // SPM buffer names
	AOff, BOff, COff Expr   // element offsets into the buffers
	M, N, K          Expr
	LDA, LDB, LDC    Expr
	ATrans, BTrans   bool
	Vec              VecDim
	// Accumulate false clears C first (beta=0); true is C += (beta=1).
	Accumulate bool
	// Specialized marks the hand-tuned assembly variant manual libraries
	// (xMath) use on exactly-aligned shapes; swATOP's schedule space never
	// sets it (see DESIGN.md, baselines).
	Specialized bool
}

// TransformKind identifies an auxiliary tensorized kernel with its own
// functional and cost implementation in the primitives package.
type TransformKind int

// Transform kinds.
const (
	// ZeroFill clears Elems elements of an SPM buffer at BufOff.
	ZeroFill TransformKind = iota
	// CopySPM copies Elems elements between SPM buffers (strided copies of
	// the lightweight-padding scheme).
	CopySPM
	// WinoInputTile transforms input tiles into Winograd domain (CPE
	// vector kernel; operates on SPM buffers).
	WinoInputTile
	// WinoFilterTile transforms a filter tile into Winograd domain.
	WinoFilterTile
	// WinoOutputTile inverse-transforms an output tile.
	WinoOutputTile
	// WinoInputSlab transforms a 4-row input slab into 16 GEMM planes
	// (args: tilesC, ci, b).
	WinoInputSlab
	// WinoOutputSlab inverse-transforms 16 result planes into a 2-row
	// output slab (args: tilesC, b).
	WinoOutputSlab
)

func (k TransformKind) String() string {
	switch k {
	case ZeroFill:
		return "zerofill"
	case CopySPM:
		return "copy_spm"
	case WinoInputTile:
		return "wino_input"
	case WinoFilterTile:
		return "wino_filter"
	case WinoOutputTile:
		return "wino_output"
	case WinoInputSlab:
		return "wino_input_slab"
	case WinoOutputSlab:
		return "wino_output_slab"
	}
	return "?"
}

// Phase names the Winograd phase ("input", "filter", "output") whose
// primitives cost model a transform kind is charged under; "" for the
// non-Winograd kinds.
func (k TransformKind) Phase() string {
	switch k {
	case WinoInputTile, WinoInputSlab:
		return "input"
	case WinoFilterTile:
		return "filter"
	case WinoOutputTile, WinoOutputSlab:
		return "output"
	}
	return ""
}

// Transform invokes an auxiliary kernel. Operand meaning depends on Kind;
// Args is a kind-specific list documented on the primitives implementing it.
type Transform struct {
	Kind TransformKind
	// Src/Dst name SPM buffers (or are empty when unused).
	Src, Dst       string
	SrcOff, DstOff Expr
	Args           []Expr
}

// Comment is a no-op annotation kept through to generated code: Text, then
// Note when there is one. Note is formatted only where the comment is
// printed, so annotating every candidate of a tuning run costs no string.
type Comment struct {
	Text string
	Note fmt.Stringer
}

func (c *Comment) String() string {
	if c.Note == nil {
		return c.Text
	}
	return c.Text + c.Note.String()
}

func (*For) isStmt()        {}
func (*If) isStmt()         {}
func (*Assign) isStmt()     {}
func (*AllocSPM) isStmt()   {}
func (*FreeSPM) isStmt()    {}
func (*RegionMove) isStmt() {}
func (*DMAOp) isStmt()      {}
func (*DMAWait) isStmt()    {}
func (*Gemm) isStmt()       {}
func (*Transform) isStmt()  {}
func (*Comment) isStmt()    {}

// CloneStmts deep-copies a statement list. Expressions are immutable and
// shared; statement structure is copied so passes can mutate freely.
func CloneStmts(body []Stmt) []Stmt {
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneStmt deep-copies one statement.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *For:
		return &For{Iter: x.Iter, Extent: x.Extent, Body: CloneStmts(x.Body)}
	case *If:
		return &If{Cond: x.Cond, Then: CloneStmts(x.Then), Else: CloneStmts(x.Else)}
	case *Assign:
		c := *x
		return &c
	case *AllocSPM:
		c := *x
		return &c
	case *FreeSPM:
		c := *x
		return &c
	case *RegionMove:
		c := *x
		c.Start = append([]Expr(nil), x.Start...)
		c.Extent = append([]Expr(nil), x.Extent...)
		c.FrameStride = append([]Expr(nil), x.FrameStride...)
		return &c
	case *DMAOp:
		c := *x
		c.Move.Start = append([]Expr(nil), x.Move.Start...)
		c.Move.Extent = append([]Expr(nil), x.Move.Extent...)
		c.Move.FrameStride = append([]Expr(nil), x.Move.FrameStride...)
		return &c
	case *DMAWait:
		c := *x
		return &c
	case *Gemm:
		c := *x
		return &c
	case *Transform:
		c := *x
		c.Args = append([]Expr(nil), x.Args...)
		return &c
	case *Comment:
		c := *x
		return &c
	}
	panic(fmt.Sprintf("ir: CloneStmt on unknown stmt %T", s))
}

// Clone deep-copies a program.
func (p *Program) Clone() *Program {
	c := &Program{Name: p.Name, Body: CloneStmts(p.Body)}
	c.Tensors = append([]TensorDecl(nil), p.Tensors...)
	for i := range c.Tensors {
		c.Tensors[i].Dims = append([]int(nil), p.Tensors[i].Dims...)
		c.Tensors[i].Layout = append([]int(nil), p.Tensors[i].Layout...)
	}
	return c
}
