package primitives

import (
	"fmt"

	"swatop/internal/ir"
)

// Slab-oriented Winograd kernels. The conv lowering DMAs an input slab of
// rows rows of cols tiles (2·rows + 2 rows × ci ≥ 2·cols + 2 columns × B
// floats per channel, row-major; cols is a whole row's tiles or a
// strip's) into SPM and transforms it at once; the transformed values land
// in 16 planes of rows·cnt values per channel (cnt = cols·B), the exact
// operand layout of the batched-GEMM phase. The inverse kernel turns 16
// result planes into an output slab of 2·rows rows (2·rows × 2·cols × B
// per channel) ready for one DMA put. The strided tile gather happens
// inside the kernel (SPM access is cheap); its cost is part of the
// transform cycle model.

// SlabRows is the rows of tiles a slab kernel covers: its optional last
// argument (Args[4] of an input slab, Args[3] of an output slab), one when
// absent. arg evaluates Args[i].
func SlabRows(x *ir.Transform, arg func(i int) int) int {
	i := 4
	if x.Kind == ir.WinoOutputSlab {
		i = 3
	}
	if len(x.Args) > i {
		return arg(i)
	}
	return 1
}

// WinoInputSlab transforms nslabs consecutive input slabs (one per input
// channel of the chunk): for every slab j, tile row tr, tile column tc and
// batch element bb, gather the 4×4 tile d at rows [2tr, 2tr+4) and columns
// [2tc, 2tc+4), compute V = Bᵀ·d·B and scatter to
// dst[(xi·nslabs + j)·rows·cnt + tr·cnt + tc·b + bb] — the 16-plane layout
// the batched GEMM phase consumes directly.
func WinoInputSlab(src, dst []float32, nslabs, rows, cols, ci, b int) error {
	if nslabs <= 0 || rows <= 0 || cols <= 0 || ci < 2*cols+2 || b <= 0 {
		return fmt.Errorf("wino input slab: bad geometry nslabs=%d rows=%d cols=%d ci=%d b=%d", nslabs, rows, cols, ci, b)
	}
	cnt := rows * cols * b
	slab := (2*rows + 2) * ci * b
	if len(src) < nslabs*slab || len(dst) < WinoPlanes*nslabs*cnt {
		return fmt.Errorf("wino input slab: short buffers (src %d/%d, dst %d/%d)",
			len(src), nslabs*slab, len(dst), WinoPlanes*nslabs*cnt)
	}
	var d, tmp, v [16]float32
	for j := 0; j < nslabs; j++ {
		for tr := 0; tr < rows; tr++ {
			s := src[j*slab+2*tr*ci*b:]
			for tc := 0; tc < cols; tc++ {
				for bb := 0; bb < b; bb++ {
					for r := 0; r < 4; r++ {
						base := r*ci*b + (tc*2)*b + bb
						d[r*4+0] = s[base]
						d[r*4+1] = s[base+b]
						d[r*4+2] = s[base+2*b]
						d[r*4+3] = s[base+3*b]
					}
					for c := 0; c < 4; c++ {
						d0, d1, d2, d3 := d[0*4+c], d[1*4+c], d[2*4+c], d[3*4+c]
						tmp[0*4+c] = d0 - d2
						tmp[1*4+c] = d1 + d2
						tmp[2*4+c] = d2 - d1
						tmp[3*4+c] = d1 - d3
					}
					for r := 0; r < 4; r++ {
						t0, t1, t2, t3 := tmp[r*4+0], tmp[r*4+1], tmp[r*4+2], tmp[r*4+3]
						v[r*4+0] = t0 - t2
						v[r*4+1] = t1 + t2
						v[r*4+2] = t2 - t1
						v[r*4+3] = t1 - t3
					}
					t := (tr*cols+tc)*b + bb
					for xi := 0; xi < WinoPlanes; xi++ {
						dst[(xi*nslabs+j)*cnt+t] = v[xi]
					}
				}
			}
		}
	}
	return nil
}

// WinoOutputSlab inverse-transforms 16 planes of nslabs·rows·cnt values
// (cnt = cols·B, one slab per output channel of the chunk) into nslabs
// output slabs of 2·rows rows (2·rows × 2·cols × B each): Y = Aᵀ·m·A per
// tile.
func WinoOutputSlab(src, dst []float32, nslabs, rows, cols, b int) error {
	if nslabs <= 0 || rows <= 0 || cols <= 0 || b <= 0 {
		return fmt.Errorf("wino output slab: bad geometry nslabs=%d rows=%d cols=%d b=%d", nslabs, rows, cols, b)
	}
	cnt := rows * cols * b
	co := 2 * cols
	slab := 2 * rows * co * b
	if len(src) < WinoPlanes*nslabs*cnt || len(dst) < nslabs*slab {
		return fmt.Errorf("wino output slab: short buffers (src %d/%d, dst %d/%d)",
			len(src), WinoPlanes*nslabs*cnt, len(dst), nslabs*slab)
	}
	var m [16]float32
	var tmp [8]float32
	for j := 0; j < nslabs; j++ {
		for tr := 0; tr < rows; tr++ {
			out := dst[j*slab+2*tr*co*b:]
			for tc := 0; tc < cols; tc++ {
				for bb := 0; bb < b; bb++ {
					t := (tr*cols+tc)*b + bb
					for xi := 0; xi < WinoPlanes; xi++ {
						m[xi] = src[(xi*nslabs+j)*cnt+t]
					}
					for c := 0; c < 4; c++ {
						m0, m1, m2, m3 := m[0*4+c], m[1*4+c], m[2*4+c], m[3*4+c]
						tmp[0*4+c] = m0 + m1 + m2
						tmp[1*4+c] = m1 - m2 - m3
					}
					for r := 0; r < 2; r++ {
						t0, t1, t2, t3 := tmp[r*4+0], tmp[r*4+1], tmp[r*4+2], tmp[r*4+3]
						y0 := t0 + t1 + t2
						y1 := t1 - t2 - t3
						out[r*co*b+(tc*2)*b+bb] = y0
						out[r*co*b+(tc*2+1)*b+bb] = y1
					}
				}
			}
		}
	}
	return nil
}
