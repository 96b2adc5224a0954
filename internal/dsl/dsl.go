// Package dsl is swATOP's embedded domain-specific language (§4.2). An
// operator is described as a *schedule seed* — axes, tensors and a
// tensorized computation over them — plus a *schedule space*: the factor
// variables, loop-order candidates, layout candidates and vectorization
// candidates the scheduler may combine. The paper embeds the DSL in C++;
// this implementation embeds it in Go with the same vocabulary
// (FactorVar ↔ Space.Factors, explicit reorder candidates ↔ Space.Orders).
package dsl

import (
	"fmt"

	"swatop/internal/ir"
)

// Role classifies an axis with respect to the central GEMM primitive.
type Role int

// Axis roles.
const (
	// RoleM contributes to the GEMM M dimension.
	RoleM Role = iota
	// RoleN contributes to the GEMM N dimension.
	RoleN
	// RoleK contributes to the GEMM K (reduction) dimension.
	RoleK
	// RoleSpatial is an outer loop axis the GEMM does not see (e.g. output
	// rows/columns in implicit convolution).
	RoleSpatial
	// RoleReduce is an outer reduction axis (e.g. kernel offsets kr/kc):
	// iterations accumulate into the same output region.
	RoleReduce
)

func (r Role) String() string {
	switch r {
	case RoleM:
		return "M"
	case RoleN:
		return "N"
	case RoleK:
		return "K"
	case RoleSpatial:
		return "spatial"
	case RoleReduce:
		return "reduce"
	}
	return "?"
}

// Axis is one iteration dimension of the operator.
type Axis struct {
	Name   string
	Extent int
	Role   Role
}

// AccessTerm is one affine term of a tensor-dimension access function:
// Coeff × axis.
type AccessTerm struct {
	Axis  string
	Coeff int
}

// OperandRole identifies which GEMM operand a tensor feeds.
type OperandRole int

// Operand roles.
const (
	// OperandA is the M×K input.
	OperandA OperandRole = iota
	// OperandB is the K×N input.
	OperandB
	// OperandC is the M×N output.
	OperandC
)

func (o OperandRole) String() string {
	return [...]string{"A", "B", "C"}[o]
}

// TensorSpec declares a main-memory tensor and how the computation indexes
// it: Access[d] is the affine sum of axis terms addressing dimension d.
type TensorSpec struct {
	Name   string
	Dims   []int
	Access [][]AccessTerm
	Role   OperandRole
}

// Seed is the schedule seed: the pure computation description (Fig. 4,
// left-top), before any schedule decisions.
type Seed struct {
	Name    string
	Axes    []*Axis
	Tensors []*TensorSpec
}

// NewSeed creates an empty seed.
func NewSeed(name string) *Seed { return &Seed{Name: name} }

// AddAxis declares an iteration axis.
func (s *Seed) AddAxis(name string, extent int, role Role) *Axis {
	a := &Axis{Name: name, Extent: extent, Role: role}
	s.Axes = append(s.Axes, a)
	return a
}

// AddTensor declares a tensor operand. access lists, per tensor dimension,
// the axis names addressing it; use Terms for multi-axis dimensions.
func (s *Seed) AddTensor(name string, dims []int, role OperandRole, access ...[]AccessTerm) *TensorSpec {
	t := &TensorSpec{Name: name, Dims: dims, Role: role, Access: access}
	s.Tensors = append(s.Tensors, t)
	return t
}

// Dim is a convenience constructor for a single-axis access term.
func Dim(axis string) []AccessTerm { return []AccessTerm{{Axis: axis, Coeff: 1}} }

// Dims builds a multi-axis access (e.g. ro+kr).
func Dims(terms ...AccessTerm) []AccessTerm { return terms }

// T builds an access term.
func T(axis string, coeff int) AccessTerm { return AccessTerm{Axis: axis, Coeff: coeff} }

// Axis returns a declared axis by name.
func (s *Seed) Axis(name string) (*Axis, error) {
	for _, a := range s.Axes {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("dsl: unknown axis %q", name)
}

// Tensor returns a declared tensor by name.
func (s *Seed) Tensor(name string) (*TensorSpec, error) {
	for _, t := range s.Tensors {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("dsl: unknown tensor %q", name)
}

// Operand returns the tensor with the given operand role.
func (s *Seed) Operand(role OperandRole) (*TensorSpec, error) {
	for _, t := range s.Tensors {
		if t.Role == role {
			return t, nil
		}
	}
	return nil, fmt.Errorf("dsl: no tensor with role %s", role)
}

// RoleAxes returns the axes of a role in declaration order — the
// significance order of composite GEMM dimensions.
func (s *Seed) RoleAxes(role Role) []string {
	var out []string
	for _, a := range s.Axes {
		if a.Role == role {
			out = append(out, a.Name)
		}
	}
	return out
}

// Validate checks internal consistency of the seed.
func (s *Seed) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dsl: seed needs a name")
	}
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if a.Extent <= 0 {
			return fmt.Errorf("dsl: axis %q has extent %d", a.Name, a.Extent)
		}
		if seen[a.Name] {
			return fmt.Errorf("dsl: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, need := range []Role{RoleM, RoleN, RoleK} {
		if len(s.RoleAxes(need)) == 0 {
			return fmt.Errorf("dsl: no axis with role %s", need)
		}
	}
	roles := map[OperandRole]bool{}
	for _, t := range s.Tensors {
		if roles[t.Role] {
			return fmt.Errorf("dsl: duplicate operand role %s", t.Role)
		}
		roles[t.Role] = true
		if len(t.Access) != len(t.Dims) {
			return fmt.Errorf("dsl: tensor %q has %d access functions for %d dims",
				t.Name, len(t.Access), len(t.Dims))
		}
		for d, terms := range t.Access {
			reach := 0
			for _, term := range terms {
				ax, err := s.Axis(term.Axis)
				if err != nil {
					return fmt.Errorf("dsl: tensor %q dim %d: %v", t.Name, d, err)
				}
				if term.Coeff <= 0 {
					return fmt.Errorf("dsl: tensor %q dim %d: non-positive coeff", t.Name, d)
				}
				reach += term.Coeff * (ax.Extent - 1)
			}
			if reach >= t.Dims[d] {
				return fmt.Errorf("dsl: tensor %q dim %d: access reaches %d, extent %d",
					t.Name, d, reach, t.Dims[d])
			}
		}
	}
	for _, r := range []OperandRole{OperandA, OperandB, OperandC} {
		if !roles[r] {
			return fmt.Errorf("dsl: missing operand %s", r)
		}
	}
	return nil
}

// PaddingMode selects the boundary-processing scheme (§4.5.3).
type PaddingMode int

// Padding modes.
const (
	// PadLightweight zero-fills only the boundary strips of SPM tile
	// frames — swATOP's scheme.
	PadLightweight PaddingMode = iota
	// PadTraditional materializes fully padded copies of every tensor in
	// main memory before computing — the baseline of Fig. 11.
	PadTraditional
)

func (p PaddingMode) String() string {
	if p == PadTraditional {
		return "traditional"
	}
	return "lightweight"
}

// Space is the schedule space definition (Fig. 4, left-bottom).
type Space struct {
	// Factors lists candidate tile factors per axis (the FactorVars). An
	// axis absent from the map is not tiled (tile factor 1: it stays a
	// pure loop). A factor equal to the extent removes the outer loop.
	Factors map[string][]int
	// Orders lists explicit loop-order candidates (outermost first),
	// naming the outer loops of tiled/loop axes. Axes omitted from an
	// order are appended innermost in declaration order.
	Orders [][]string
	// Layouts lists candidate storage permutations per tensor.
	Layouts map[string][][]int
	// Vecs lists vectorized-dimension candidates.
	Vecs []ir.VecDim
	// DoubleBuffer lists auto-prefetching candidates (usually {true};
	// {false, true} for the Fig. 10 ablation).
	DoubleBuffer []bool
	// Padding lists boundary-processing candidates (usually
	// {PadLightweight}).
	Padding []PaddingMode
}

// NewSpace returns a space with the universal defaults: prefetching on,
// lightweight padding, both vectorization dimensions.
func NewSpace() *Space {
	return &Space{
		Factors:      map[string][]int{},
		Layouts:      map[string][][]int{},
		Vecs:         []ir.VecDim{ir.VecM, ir.VecN},
		DoubleBuffer: []bool{true},
		Padding:      []PaddingMode{PadLightweight},
	}
}

// FactorVar declares tile-factor candidates for an axis (the DSL's
// FactorVar). Invalid candidates (> extent) are the scheduler's problem to
// prune, matching "swATOP will automatically traverse all valid candidates
// of the factor".
func (sp *Space) FactorVar(axis string, candidates ...int) *Space {
	sp.Factors[axis] = append(sp.Factors[axis], candidates...)
	return sp
}

// TileMenu returns tile-factor candidates for an extent: a fixed ascending
// menu clipped to the extent, always including the extent itself when small
// (removing the loop entirely). Factors need not divide the extent —
// boundary processing handles remainders.
func TileMenu(extent int, menu []int) []int {
	var out []int
	for _, f := range menu {
		if f < extent {
			out = append(out, f)
		}
	}
	if extent <= menu[len(menu)-1] {
		out = append(out, extent)
	}
	if len(out) == 0 {
		out = []int{extent}
	}
	return out
}

// Reorder declares an explicit loop-order candidate.
func (sp *Space) Reorder(order ...string) *Space {
	sp.Orders = append(sp.Orders, order)
	return sp
}

// Layout declares a storage-permutation candidate for a tensor.
func (sp *Space) Layout(tensor string, perm ...int) *Space {
	sp.Layouts[tensor] = append(sp.Layouts[tensor], perm)
	return sp
}

// Strategy is one fully-resolved schedule: a point of the schedule space
// (Fig. 4 middle-bottom is the lowering of one of these).
type Strategy struct {
	Factors      map[string]int
	Order        []string
	Layouts      map[string][]int
	Vec          ir.VecDim
	DoubleBuffer bool
	Padding      PaddingMode
}

// String renders a compact, deterministic description of the strategy.
func (st Strategy) String() string {
	s := "tiles{"
	first := true
	// Render in a stable order: factors sorted by axis name.
	names := make([]string, 0, len(st.Factors))
	for n := range st.Factors {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, n := range names {
		if !first {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", n, st.Factors[n])
		first = false
	}
	s += "} order" + fmt.Sprint(st.Order)
	if len(st.Layouts) > 0 {
		tnames := make([]string, 0, len(st.Layouts))
		for n := range st.Layouts {
			tnames = append(tnames, n)
		}
		for i := 1; i < len(tnames); i++ {
			for j := i; j > 0 && tnames[j] < tnames[j-1]; j-- {
				tnames[j], tnames[j-1] = tnames[j-1], tnames[j]
			}
		}
		s += " lay{"
		for i, n := range tnames {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%s=%v", n, st.Layouts[n])
		}
		s += "}"
	}
	s += fmt.Sprintf(" %s db=%v pad=%s", st.Vec, st.DoubleBuffer, st.Padding)
	return s
}

// Operator is anything tunable: it exposes its schedule seed and space and
// compiles one strategy into an executable program. Single-nest operators
// use core.Compile; multi-phase operators (Winograd, explicit convolution)
// compose their own programs. Compile must be safe for concurrent calls:
// the tuner's worker pool compiles many strategies of one operator at once.
type Operator interface {
	Name() string
	Seed() *Seed
	Space() *Space
	Compile(st Strategy) (*ir.Program, error)
}
