package primitives

import (
	"fmt"

	"swatop/internal/ir"
	"swatop/internal/sw26010"
)

// Auxiliary SPM kernels used by boundary processing (§4.5.3): zero-fill for
// lightweight padding and strided SPM-to-SPM copies into auxiliary buffers.

// ZeroFill clears n elements of an SPM slice.
func ZeroFill(dst []float32, n int) error {
	if n < 0 || n > len(dst) {
		return fmt.Errorf("zerofill: %d elements into buffer of %d", n, len(dst))
	}
	for i := 0; i < n; i++ {
		dst[i] = 0
	}
	return nil
}

// CopySPM copies n elements between SPM slices.
func CopySPM(src, dst []float32, n int) error {
	if n < 0 || n > len(src) || n > len(dst) {
		return fmt.Errorf("copy_spm: %d elements (src %d, dst %d)", n, len(src), len(dst))
	}
	copy(dst[:n], src[:n])
	return nil
}

// ZeroFillTime models a vectorized SPM clear: one vector store per 4
// elements, spread across the cluster.
func ZeroFillTime(n int) float64 {
	vecs := float64(ceilDiv(n, sw26010.VectorWidth))
	cycles := 40.0 + vecs/float64(sw26010.NumCPE)
	return sw26010.Seconds(cycles)
}

// CopySPMTime models an SPM-to-SPM vector copy (load + store per vector).
func CopySPMTime(n int) float64 {
	vecs := float64(ceilDiv(n, sw26010.VectorWidth))
	cycles := 40.0 + 2*vecs/float64(sw26010.NumCPE)
	return sw26010.Seconds(cycles)
}

// TransformTime is the simulated time of one Transform statement: which of
// its Args is an element or tile count is a property of the kind, written
// here once for the estimator and the executor. arg evaluates Args[i].
func TransformTime(x *ir.Transform, arg func(i int) int) (float64, error) {
	switch x.Kind {
	case ir.ZeroFill:
		return ZeroFillTime(arg(0)), nil
	case ir.CopySPM:
		return CopySPMTime(arg(0)), nil
	case ir.WinoInputTile, ir.WinoFilterTile, ir.WinoOutputTile:
		return WinoTransformTime(x.Kind.Phase(), arg(0))
	case ir.WinoInputSlab: // nslabs, tilesC, ci, b
		return WinoSlabTime(x.Kind.Phase(), arg(0)*arg(1)*arg(3))
	case ir.WinoOutputSlab: // nslabs, tilesC, b
		return WinoSlabTime(x.Kind.Phase(), arg(0)*arg(1)*arg(2))
	}
	return 0, fmt.Errorf("unknown transform %v", x.Kind)
}
