// neighbors.go implements cross-shape transfer lookup: when the tuner
// starts on a shape the library has never seen, the nearest already-tuned
// shapes of the same operator family donate their winning strategies as
// search seeds. Distance is measured in log space over the shape
// dimensions parsed from the signature, so 512×512×512 is nearer to
// 1024×512×512 than to 64×64×64 regardless of absolute magnitudes.
package cache

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sigShape is a parsed operator signature: the family tag and the shape
// dimensions in a fixed order.
type sigShape struct {
	family string
	dims   []float64
}

// parseSignature understands the operator naming schemes of this repo:
// gemm_MxNxK and {implicit,explicit,winograd,winograd_fused}_conv_b*_ni*_no*_r*x*_k*x*,
// either with the suffix _relu of the ReLU epilogue, and a conv with the
// suffix _pad<n> of its halo besides: neither changes the family or the
// space, so a padded shape and its unpadded twin seed each other. Unknown
// signatures return ok=false and never participate in transfer.
func parseSignature(sig string) (sigShape, bool) {
	if rest, found := strings.CutPrefix(sig, "gemm_"); found {
		var m, n, k int
		if _, err := fmt.Sscanf(rest, "%dx%dx%d", &m, &n, &k); err != nil {
			return sigShape{}, false
		}
		return sigShape{family: "gemm", dims: []float64{float64(m), float64(n), float64(k)}}, true
	}
	for _, fam := range []string{"implicit_conv", "explicit_conv", "winograd_conv", "winograd_fused_conv"} {
		rest, found := strings.CutPrefix(sig, fam+"_")
		if !found {
			continue
		}
		var b, ni, no, ro, co, kr, kc int
		if _, err := fmt.Sscanf(rest, "b%d_ni%d_no%d_r%dx%d_k%dx%d", &b, &ni, &no, &ro, &co, &kr, &kc); err != nil {
			return sigShape{}, false
		}
		return sigShape{family: fam, dims: []float64{
			float64(b), float64(ni), float64(no), float64(ro), float64(co), float64(kr), float64(kc),
		}}, true
	}
	return sigShape{}, false
}

// distance is the Euclidean log-space distance between two same-length
// dimension vectors.
func (s sigShape) distance(o sigShape) float64 {
	var d2 float64
	for i := range s.dims {
		d := math.Log2(math.Max(s.dims[i], 1)) - math.Log2(math.Max(o.dims[i], 1))
		d2 += d * d
	}
	return math.Sqrt(d2)
}

// Nearest returns up to k cached entries of the same operator family as
// signature, nearest shape first (log-space distance over the parsed
// dimensions, ties broken by signature). An entry bearing the exact
// signature is excluded — transfer seeds a *new* shape's search.
//
// Entries that are Degraded or fail Validate never qualify: a degraded
// baseline or a hand-corrupted entry must not seed a population (the
// quarantine Load applies protects the map, but entries can also arrive
// via Put). Unparseable signatures — the query's or an entry's — simply
// yield no matches.
func (l *Library) Nearest(signature string, k int) []Entry {
	want, ok := parseSignature(signature)
	if !ok || k <= 0 {
		return nil
	}
	l.mu.RLock()
	type scored struct {
		e Entry
		d float64
	}
	var cands []scored
	for sig, e := range l.entries {
		if sig == signature || e.Degraded || e.Validate() != nil {
			continue
		}
		have, ok := parseSignature(sig)
		if !ok || have.family != want.family {
			continue
		}
		cands = append(cands, scored{e: e, d: want.distance(have)})
	}
	l.mu.RUnlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].e.Signature < cands[j].e.Signature
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Entry, len(cands))
	for i, c := range cands {
		out[i] = c.e
	}
	l.reg().Counter("cache_neighbor_lookups_total").Inc()
	return out
}
