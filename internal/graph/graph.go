// Package graph defines the network intermediate representation of the
// inference runtime: a dataflow graph of typed operator nodes (convolution,
// GEMM/fully-connected with their ReLU epilogues, and the data-movement
// stubs between them) over named tensors. It is deliberately small — just enough to
// compose the repo's tuned operators into the whole networks the paper
// integrates into swCaffe (VGG16, ResNet, YOLO) — but shape-checked and
// deterministically ordered, so the inference engine can plan memory and
// replay timelines reproducibly.
package graph

import (
	"fmt"

	"swatop/internal/gemm"
	"swatop/internal/tensor"
)

// Kind is the operator type of a node.
type Kind string

// Node kinds. Conv and Gemm are the tuned operators, a ReLU their epilogue
// and a conv's zero padding its halo; the rest are the thin glue layers
// real networks interleave between them. Flatten reshapes the last feature
// map into the fully-connected input matrix.
const (
	Conv    Kind = "conv"
	Gemm    Kind = "gemm"
	MaxPool Kind = "maxpool" // 2×2, stride 2
	Flatten Kind = "flatten"
)

// Tensor is a named main-memory tensor of the network.
type Tensor struct {
	Name string
	Dims []int
	// Param marks model parameters (conv filters, fc weight matrices):
	// they live for the whole network and are never placed into the
	// activation arenas the engine ping-pongs between layers.
	Param bool
}

// Bytes is the float32 storage footprint.
func (t *Tensor) Bytes() int64 {
	n := int64(4)
	for _, d := range t.Dims {
		n *= int64(d)
	}
	return n
}

// Node is one operator instance. In reads tensors in operator-defined
// order (conv: data then filter; gemm: input matrix then weight matrix);
// Out is the single produced tensor.
type Node struct {
	Name string
	Kind Kind
	In   []string
	Out  string

	// Conv is the geometry of a Conv node.
	Conv tensor.ConvShape
	// Gemm is the problem size of a Gemm node.
	Gemm gemm.Params
}

// Graph is a network: nodes over named tensors, one designated input and
// output tensor. Nodes are stored in insertion order, which doubles as the
// deterministic topological order (AddNode enforces that every read tensor
// is already produced, so insertion order is always topological).
type Graph struct {
	Name  string
	Batch int

	nodes   []*Node
	tensors map[string]*Tensor
	// producer maps a tensor to the node that writes it ("" = graph input
	// or parameter).
	producer map[string]string

	Input  string
	Output string
}

// New creates an empty graph for one batch size.
func New(name string, batch int) *Graph {
	return &Graph{
		Name:     name,
		Batch:    batch,
		tensors:  map[string]*Tensor{},
		producer: map[string]string{},
	}
}

// AddTensor declares a named tensor; duplicate names and non-positive
// extents are errors.
func (g *Graph) AddTensor(name string, dims []int, param bool) (*Tensor, error) {
	if name == "" {
		return nil, fmt.Errorf("graph %s: tensor with empty name", g.Name)
	}
	if _, dup := g.tensors[name]; dup {
		return nil, fmt.Errorf("graph %s: tensor %q declared twice", g.Name, name)
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("graph %s: tensor %q has non-positive dim in %v", g.Name, name, dims)
		}
	}
	t := &Tensor{Name: name, Dims: append([]int(nil), dims...), Param: param}
	g.tensors[name] = t
	return t, nil
}

// AddNode appends a node. Every input tensor must already exist and —
// unless it is a parameter or the graph input — already have a producer;
// the output tensor must exist and be unproduced. This makes insertion
// order a topological order by construction and rejects cycles outright.
func (g *Graph) AddNode(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("graph %s: node with empty name", g.Name)
	}
	for _, o := range g.nodes {
		if o.Name == n.Name {
			return fmt.Errorf("graph %s: node %q declared twice", g.Name, n.Name)
		}
	}
	for _, in := range n.In {
		t, ok := g.tensors[in]
		if !ok {
			return fmt.Errorf("graph %s: node %s reads undeclared tensor %q", g.Name, n.Name, in)
		}
		if !t.Param && in != g.Input && g.producer[in] == "" {
			return fmt.Errorf("graph %s: node %s reads %q before any node produces it", g.Name, n.Name, in)
		}
	}
	if _, ok := g.tensors[n.Out]; !ok {
		return fmt.Errorf("graph %s: node %s writes undeclared tensor %q", g.Name, n.Name, n.Out)
	}
	if p := g.producer[n.Out]; p != "" {
		return fmt.Errorf("graph %s: tensor %q produced by both %s and %s", g.Name, n.Out, p, n.Name)
	}
	if n.Out == g.Input {
		return fmt.Errorf("graph %s: node %s writes the graph input %q", g.Name, n.Name, n.Out)
	}
	g.producer[n.Out] = n.Name
	g.nodes = append(g.nodes, n)
	return nil
}

// Tensor looks up a declared tensor.
func (g *Graph) Tensor(name string) (*Tensor, bool) {
	t, ok := g.tensors[name]
	return t, ok
}

// Tensors lists all declared tensors in a deterministic order: graph input
// first, then node outputs in node order, then parameters in first-use
// order.
func (g *Graph) Tensors() []*Tensor {
	var out []*Tensor
	seen := map[string]bool{}
	add := func(name string) {
		if t, ok := g.tensors[name]; ok && !seen[name] {
			seen[name] = true
			out = append(out, t)
		}
	}
	add(g.Input)
	for _, n := range g.nodes {
		add(n.Out)
	}
	for _, n := range g.nodes {
		for _, in := range n.In {
			add(in)
		}
	}
	return out
}

// Producer returns the name of the node writing a tensor ("" for the graph
// input and parameters).
func (g *Graph) Producer(name string) string { return g.producer[name] }

// Topo returns the nodes in the deterministic topological order: insertion
// order, which AddNode guarantees is topological. The slice is fresh; the
// nodes are shared.
func (g *Graph) Topo() []*Node {
	return append([]*Node(nil), g.nodes...)
}

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// CountKind reports how many nodes have the given kind.
func (g *Graph) CountKind(k Kind) int {
	n := 0
	for _, node := range g.nodes {
		if node.Kind == k {
			n++
		}
	}
	return n
}

// FLOPs sums the floating-point work of the tuned operators (conv + gemm);
// the glue stubs move data but do no MACs.
func (g *Graph) FLOPs() int64 {
	var total int64
	for _, n := range g.nodes {
		switch n.Kind {
		case Conv:
			total += n.Conv.FLOPs()
		case Gemm:
			total += n.Gemm.FLOPs()
		}
	}
	return total
}

// Validate shape-checks every node against its tensors: conv geometry
// against its input (unpadded where the conv has a halo), gemm against the [K×N] input and
// [M×N] output matrices, and the stubs against their resampling
// contracts. It also checks the designated input/output exist and the
// output is produced.
func (g *Graph) Validate() error {
	if g.Input == "" || g.tensors[g.Input] == nil {
		return fmt.Errorf("graph %s: no input tensor", g.Name)
	}
	if g.Output == "" || g.tensors[g.Output] == nil {
		return fmt.Errorf("graph %s: no output tensor", g.Name)
	}
	if g.producer[g.Output] == "" {
		return fmt.Errorf("graph %s: output %q is never produced", g.Name, g.Output)
	}
	for _, n := range g.nodes {
		if err := g.checkNode(n); err != nil {
			return fmt.Errorf("graph %s: node %s: %w", g.Name, n.Name, err)
		}
	}
	return nil
}

func (g *Graph) checkNode(n *Node) error {
	dims := func(name string) []int { return g.tensors[name].Dims }
	eq := func(got []int, want ...int) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	switch n.Kind {
	case Conv:
		s := n.Conv
		if err := s.Validate(); err != nil {
			return err
		}
		if len(n.In) != 2 {
			return fmt.Errorf("conv wants 2 inputs (data, filter), has %d", len(n.In))
		}
		if got := dims(n.In[0]); !eq(got, s.Ni, s.Ri(), s.Ci(), s.B) {
			return fmt.Errorf("input %s dims %v, want (%d,%d,%d,%d)", n.In[0], got, s.Ni, s.Ri(), s.Ci(), s.B)
		}
		if got := dims(n.In[1]); !eq(got, s.No, s.Ni, s.Kr, s.Kc) {
			return fmt.Errorf("filter %s dims %v, want (%d,%d,%d,%d)", n.In[1], got, s.No, s.Ni, s.Kr, s.Kc)
		}
		if got := dims(n.Out); !eq(got, s.No, s.Ro, s.Co, s.B) {
			return fmt.Errorf("output %s dims %v, want (%d,%d,%d,%d)", n.Out, got, s.No, s.Ro, s.Co, s.B)
		}
	case Gemm:
		p := n.Gemm
		if err := p.Validate(); err != nil {
			return err
		}
		if len(n.In) != 2 {
			return fmt.Errorf("gemm wants 2 inputs (matrix, weight), has %d", len(n.In))
		}
		if got := dims(n.In[0]); !eq(got, p.K, p.N) {
			return fmt.Errorf("input %s dims %v, want (%d,%d)", n.In[0], got, p.K, p.N)
		}
		if got := dims(n.In[1]); !eq(got, p.M, p.K) {
			return fmt.Errorf("weight %s dims %v, want (%d,%d)", n.In[1], got, p.M, p.K)
		}
		if got := dims(n.Out); !eq(got, p.M, p.N) {
			return fmt.Errorf("output %s dims %v, want (%d,%d)", n.Out, got, p.M, p.N)
		}
	case MaxPool:
		if len(n.In) != 1 {
			return fmt.Errorf("maxpool wants 1 input, has %d", len(n.In))
		}
		in, out := dims(n.In[0]), dims(n.Out)
		if len(in) != 4 || len(out) != 4 ||
			in[0] != out[0] || in[3] != out[3] ||
			out[1]*2 != in[1] || out[2]*2 != in[2] {
			return fmt.Errorf("maxpool %v -> %v is not a 2×2/2 downsample", in, out)
		}
	case Flatten:
		if len(n.In) != 1 {
			return fmt.Errorf("flatten wants 1 input, has %d", len(n.In))
		}
		in, out := dims(n.In[0]), dims(n.Out)
		if len(in) != 4 || len(out) != 2 ||
			out[0] != in[0]*in[1]*in[2] || out[1] != in[3] {
			return fmt.Errorf("flatten %v -> %v inconsistent", in, out)
		}
	default:
		return fmt.Errorf("unknown kind %q", n.Kind)
	}
	return nil
}
