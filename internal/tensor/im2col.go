package tensor

import "fmt"

// ConvShape captures the geometry of a 2-D multi-channel convolution in the
// paper's notation (§3, Alg. 1): batch B, input channels Ni, output channels
// No, output spatial extents Ro×Co, kernel extents Kr×Kc, stride 1 (the case
// the paper evaluates). Pad is the zero border on each side of the input's
// rows and columns, which the operator reads through its halo (boundary
// processing) rather than from memory: the input extents are
// Ri = Ro+Kr-1-2·Pad, Ci = Co+Kc-1-2·Pad, and a shape with Pad 0 reads a
// pre-padded input. ReLU makes the operator apply max(0, x) to its output as
// an epilogue, in SPM before the output put.
type ConvShape struct {
	B, Ni, No int
	Ro, Co    int
	Kr, Kc    int
	ReLU      bool
	Pad       int
}

// Ri returns the input row extent.
func (s ConvShape) Ri() int { return s.Ro + s.Kr - 1 - 2*s.Pad }

// Ci returns the input column extent.
func (s ConvShape) Ci() int { return s.Co + s.Kc - 1 - 2*s.Pad }

// FLOPs returns the multiply-add count of the direct convolution, counted
// as 2 flops per MAC — the denominator the paper uses for all efficiency
// numbers (so Winograd can exceed 100%).
func (s ConvShape) FLOPs() int64 {
	return 2 * int64(s.B) * int64(s.Ni) * int64(s.No) * int64(s.Ro) * int64(s.Co) * int64(s.Kr) * int64(s.Kc)
}

// Validate rejects degenerate shapes.
func (s ConvShape) Validate() error {
	if s.B <= 0 || s.Ni <= 0 || s.No <= 0 || s.Ro <= 0 || s.Co <= 0 || s.Kr <= 0 || s.Kc <= 0 {
		return fmt.Errorf("conv shape has non-positive extent: %+v", s)
	}
	if s.Pad < 0 || s.Ri() <= 0 || s.Ci() <= 0 {
		return fmt.Errorf("conv shape's pad %d leaves no input: %+v", s.Pad, s)
	}
	return nil
}

func (s ConvShape) String() string {
	relu := ""
	if s.ReLU {
		relu = ",relu"
	}
	if s.Pad > 0 {
		return fmt.Sprintf("conv(B=%d,Ni=%d,No=%d,Ro=%d,Co=%d,K=%dx%d%s,pad=%d)", s.B, s.Ni, s.No, s.Ro, s.Co, s.Kr, s.Kc, relu, s.Pad)
	}
	return fmt.Sprintf("conv(B=%d,Ni=%d,No=%d,Ro=%d,Co=%d,K=%dx%d%s)", s.B, s.Ni, s.No, s.Ro, s.Co, s.Kr, s.Kc, relu)
}

// NewConvInput allocates the input tensor in (Ni, Ri, Ci, B) order — the
// channel-major, batch-innermost layout swDNN uses so that the batch
// dimension is unit-stride for vectorization.
func NewConvInput(s ConvShape) *Tensor {
	return New("in", s.Ni, s.Ri(), s.Ci(), s.B)
}

// NewConvFilter allocates the filter tensor in (No, Ni, Kr, Kc) order.
func NewConvFilter(s ConvShape) *Tensor {
	return New("weight", s.No, s.Ni, s.Kr, s.Kc)
}

// NewConvOutput allocates the output tensor in (No, Ro, Co, B) order.
func NewConvOutput(s ConvShape) *Tensor {
	return New("out", s.No, s.Ro, s.Co, s.B)
}

// Im2col expands the input tensor of shape (Ni, Ri, Ci, B) into the column
// matrix of the explicit-GEMM method (Fig. 2 left): a (Ni*Kr*Kc) ×
// (Ro*Co*B) matrix such that output = filterMatrix × columnMatrix, where
// filterMatrix is the (No) × (Ni*Kr*Kc) reshaped filter. It reads zero
// outside the input (the pad).
func Im2col(in *Tensor, s ConvShape) (*Tensor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	want := []int{s.Ni, s.Ri(), s.Ci(), s.B}
	if len(in.Dims) != 4 {
		return nil, fmt.Errorf("im2col: input must be rank 4, got %d", len(in.Dims))
	}
	for d, w := range want {
		if in.Dims[d] != w {
			return nil, fmt.Errorf("im2col: input dim %d is %d, want %d", d, in.Dims[d], w)
		}
	}
	col := New("im2col", s.Ni*s.Kr*s.Kc, s.Ro*s.Co*s.B)
	for ni := 0; ni < s.Ni; ni++ {
		for kr := 0; kr < s.Kr; kr++ {
			for kc := 0; kc < s.Kc; kc++ {
				row := (ni*s.Kr+kr)*s.Kc + kc
				for ro := 0; ro < s.Ro; ro++ {
					for co := 0; co < s.Co; co++ {
						for b := 0; b < s.B; b++ {
							colIdx := (ro*s.Co+co)*s.B + b
							col.Set(padded(in, s, ni, ro+kr, co+kc, b), row, colIdx)
						}
					}
				}
			}
		}
	}
	return col, nil
}

// FilterMatrix reshapes a (No, Ni, Kr, Kc) filter into the (No) ×
// (Ni*Kr*Kc) matrix used by the explicit-GEMM method.
func FilterMatrix(w *Tensor, s ConvShape) (*Tensor, error) {
	if len(w.Dims) != 4 || w.Dims[0] != s.No || w.Dims[1] != s.Ni || w.Dims[2] != s.Kr || w.Dims[3] != s.Kc {
		return nil, fmt.Errorf("filter matrix: bad filter dims %v for %v", w.Dims, s)
	}
	m := New("wmat", s.No, s.Ni*s.Kr*s.Kc)
	for no := 0; no < s.No; no++ {
		for ni := 0; ni < s.Ni; ni++ {
			for kr := 0; kr < s.Kr; kr++ {
				for kc := 0; kc < s.Kc; kc++ {
					m.Set(w.At(no, ni, kr, kc), no, (ni*s.Kr+kr)*s.Kc+kc)
				}
			}
		}
	}
	return m, nil
}

// OutputFromMatrix scatters the (No) × (Ro*Co*B) explicit-GEMM result back
// into a (No, Ro, Co, B) output tensor.
func OutputFromMatrix(m *Tensor, s ConvShape) (*Tensor, error) {
	if len(m.Dims) != 2 || m.Dims[0] != s.No || m.Dims[1] != s.Ro*s.Co*s.B {
		return nil, fmt.Errorf("output matrix: bad dims %v for %v", m.Dims, s)
	}
	out := NewConvOutput(s)
	for no := 0; no < s.No; no++ {
		for ro := 0; ro < s.Ro; ro++ {
			for co := 0; co < s.Co; co++ {
				for b := 0; b < s.B; b++ {
					out.Set(m.At(no, (ro*s.Co+co)*s.B+b), no, ro, co, b)
				}
			}
		}
	}
	return out, nil
}

// padded reads the input at row r and column c of its zero-padded form.
func padded(in *Tensor, s ConvShape, ni, r, c, b int) float32 {
	r, c = r-s.Pad, c-s.Pad
	if r < 0 || r >= s.Ri() || c < 0 || c >= s.Ci() {
		return 0
	}
	return in.At(ni, r, c, b)
}

// ReferenceConv computes the direct convolution (Alg. 1) naively, reading
// zero outside the input and clamped at zero when s.ReLU is set. It is the
// correctness oracle for all three tensorized methods.
func ReferenceConv(in, weight *Tensor, s ConvShape) (*Tensor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := NewConvOutput(s)
	for no := 0; no < s.No; no++ {
		for ro := 0; ro < s.Ro; ro++ {
			for co := 0; co < s.Co; co++ {
				for b := 0; b < s.B; b++ {
					var acc float32
					for ni := 0; ni < s.Ni; ni++ {
						for kr := 0; kr < s.Kr; kr++ {
							for kc := 0; kc < s.Kc; kc++ {
								acc += padded(in, s, ni, ro+kr, co+kc, b) * weight.At(no, ni, kr, kc)
							}
						}
					}
					if s.ReLU && acc < 0 {
						acc = 0
					}
					out.Set(acc, no, ro, co, b)
				}
			}
		}
	}
	return out, nil
}

// ReferenceGemm computes C = alpha*A*B + beta*C for row-major rank-2
// tensors; the oracle for the GEMM operator pipeline.
func ReferenceGemm(a, b *Tensor, alpha, beta float32) (*Tensor, error) {
	if len(a.Dims) != 2 || len(b.Dims) != 2 {
		return nil, fmt.Errorf("gemm oracle: operands must be rank 2")
	}
	m, k := a.Dims[0], a.Dims[1]
	k2, n := b.Dims[0], b.Dims[1]
	if k != k2 {
		return nil, fmt.Errorf("gemm oracle: inner dims %d vs %d", k, k2)
	}
	c := New("cref", m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a.At(i, p) * b.At(p, j)
			}
			c.Set(alpha*acc+beta*c.At(i, j), i, j)
		}
	}
	return c, nil
}
