package primitives

import (
	"fmt"

	"swatop/internal/sw26010"
)

// Winograd F(2×2, 3×3) tile transforms (Lavin & Gray; paper §3, Fig. 2
// middle). Tiles are 4×4, outputs 2×2, 16 element-wise products per tile —
// which swATOP batches into 16 GEMM planes.
//
// SPM data layouts used by the conv lowering:
//   - filter source: cnt consecutive 3×3 filters (9 floats each, row-major)
//   - input source:  cnt consecutive 4×4 tiles (16 floats, row-major)
//   - transformed:   16 planes of cnt floats: dst[xi*cnt + t]
//   - output:        cnt consecutive 2×2 tiles (4 floats, row-major)

// WinoTileSize is the Winograd input tile side.
const WinoTileSize = 4

// WinoPlanes is the number of element-wise product planes (= GEMM calls).
const WinoPlanes = WinoTileSize * WinoTileSize

// WinoFilterTransform computes U = G·g·Gᵀ for cnt 3×3 filters, scattering
// results into 16 planes.
func WinoFilterTransform(src, dst []float32, cnt int) error {
	if len(src) < cnt*9 || len(dst) < cnt*WinoPlanes {
		return fmt.Errorf("wino filter transform: short buffers (src %d/%d, dst %d/%d)",
			len(src), cnt*9, len(dst), cnt*WinoPlanes)
	}
	for t := 0; t < cnt; t++ {
		g := src[t*9 : t*9+9]
		// tmp = G·g (4×3), G = [[1,0,0],[.5,.5,.5],[.5,-.5,.5],[0,0,1]]
		var tmp [12]float32
		for c := 0; c < 3; c++ {
			g0, g1, g2 := g[0*3+c], g[1*3+c], g[2*3+c]
			tmp[0*3+c] = g0
			tmp[1*3+c] = 0.5 * (g0 + g1 + g2)
			tmp[2*3+c] = 0.5 * (g0 - g1 + g2)
			tmp[3*3+c] = g2
		}
		// u = tmp·Gᵀ (4×4)
		for r := 0; r < 4; r++ {
			t0, t1, t2 := tmp[r*3+0], tmp[r*3+1], tmp[r*3+2]
			u0 := t0
			u1 := 0.5 * (t0 + t1 + t2)
			u2 := 0.5 * (t0 - t1 + t2)
			u3 := t2
			dst[(r*4+0)*cnt+t] = u0
			dst[(r*4+1)*cnt+t] = u1
			dst[(r*4+2)*cnt+t] = u2
			dst[(r*4+3)*cnt+t] = u3
		}
	}
	return nil
}

// WinoInputTransform computes V = Bᵀ·d·B for cnt 4×4 input tiles,
// scattering results into 16 planes.
func WinoInputTransform(src, dst []float32, cnt int) error {
	if len(src) < cnt*16 || len(dst) < cnt*WinoPlanes {
		return fmt.Errorf("wino input transform: short buffers (src %d/%d, dst %d/%d)",
			len(src), cnt*16, len(dst), cnt*WinoPlanes)
	}
	for t := 0; t < cnt; t++ {
		d := src[t*16 : t*16+16]
		// tmp = Bᵀ·d, Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]
		var tmp [16]float32
		for c := 0; c < 4; c++ {
			d0, d1, d2, d3 := d[0*4+c], d[1*4+c], d[2*4+c], d[3*4+c]
			tmp[0*4+c] = d0 - d2
			tmp[1*4+c] = d1 + d2
			tmp[2*4+c] = d2 - d1
			tmp[3*4+c] = d1 - d3
		}
		// v = tmp·B
		for r := 0; r < 4; r++ {
			t0, t1, t2, t3 := tmp[r*4+0], tmp[r*4+1], tmp[r*4+2], tmp[r*4+3]
			v0 := t0 - t2
			v1 := t1 + t2
			v2 := t2 - t1
			v3 := t1 - t3
			dst[(r*4+0)*cnt+t] = v0
			dst[(r*4+1)*cnt+t] = v1
			dst[(r*4+2)*cnt+t] = v2
			dst[(r*4+3)*cnt+t] = v3
		}
	}
	return nil
}

// WinoOutputTransform computes Y = Aᵀ·m·A for cnt tiles gathered from 16
// planes, producing 2×2 outputs.
func WinoOutputTransform(src, dst []float32, cnt int) error {
	if len(src) < cnt*WinoPlanes || len(dst) < cnt*4 {
		return fmt.Errorf("wino output transform: short buffers (src %d/%d, dst %d/%d)",
			len(src), cnt*WinoPlanes, len(dst), cnt*4)
	}
	for t := 0; t < cnt; t++ {
		var m [16]float32
		for xi := 0; xi < 16; xi++ {
			m[xi] = src[xi*cnt+t]
		}
		// tmp = Aᵀ·m (2×4), Aᵀ = [[1,1,1,0],[0,1,-1,-1]]
		var tmp [8]float32
		for c := 0; c < 4; c++ {
			m0, m1, m2, m3 := m[0*4+c], m[1*4+c], m[2*4+c], m[3*4+c]
			tmp[0*4+c] = m0 + m1 + m2
			tmp[1*4+c] = m1 - m2 - m3
		}
		// y = tmp·A
		for r := 0; r < 2; r++ {
			t0, t1, t2, t3 := tmp[r*4+0], tmp[r*4+1], tmp[r*4+2], tmp[r*4+3]
			dst[t*4+r*2+0] = t0 + t1 + t2
			dst[t*4+r*2+1] = t1 - t2 - t3
		}
	}
	return nil
}

// Winograd transform cycle costs. Each transform is a short sequence of
// vector adds/muls per tile; the cluster processes tiles in parallel
// across 64 CPEs, VectorWidth tiles per vector op.
const (
	winoFilterOpsPerTile = 28.0 // 4×3 + 4×4 fused adds/muls
	winoInputOpsPerTile  = 32.0
	winoOutputOpsPerTile = 24.0
	// winoScatterPenalty models the strided SPM scatter into the 16 planes
	// (P1-bound, partially overlapped).
	winoScatterPenalty          = 8.0
	transformCallOverheadCycles = 90.0
)

// WinoTransformTime returns the simulated time of transforming cnt tiles of
// the given phase ("filter", "input", "output").
func WinoTransformTime(phase string, cnt int) (float64, error) {
	var ops float64
	switch phase {
	case "filter":
		ops = winoFilterOpsPerTile
	case "input":
		ops = winoInputOpsPerTile
	case "output":
		ops = winoOutputOpsPerTile
	default:
		return 0, fmt.Errorf("wino transform: unknown phase %q", phase)
	}
	// VectorWidth tiles per vector op, tiles spread across the 64 CPEs.
	perTile := (ops + winoScatterPenalty) / float64(sw26010.VectorWidth)
	cycles := transformCallOverheadCycles + perTile*float64(ceilDiv(cnt, sw26010.NumCPE))
	return sw26010.Seconds(cycles), nil
}
