package search

import "math"

// Model is the searcher's one predictor: a candidate's analytic estimate
// (the prior) times a learned correction. The correction is an online ridge
// regressor over feature vectors: it accumulates the normal equations XᵀX
// and Xᵀy incrementally and re-solves them on demand, with online feature
// standardization (Welford mean/variance) so magnitude-spanning features do
// not drown the small ones. It is dependency-free and deterministic: the
// same Fit sequence always yields the same predictions.
//
// Targets are log residuals, log(measured / prior) — schedule run times span
// orders of magnitude and the ranking (which candidate is faster) matters
// more than the absolute error. Predict returns seconds.
type Model struct {
	dim    int
	lambda float64

	n    int64
	mean []float64 // Welford running mean per feature
	m2   []float64 // Welford running sum of squared deviations
	xtx  []float64 // dim+1 × dim+1, standardized features + bias column
	xty  []float64 // dim+1
	coef []float64 // cached solution; nil when stale

	// Prequential MAE: each sample is predicted before it is fitted, so the
	// error estimate never tests on training data.
	absErrSum float64
	errCount  int64
}

// NewModel creates a regressor for dim-length feature vectors. lambda ≤ 0
// defaults to a small ridge penalty that keeps the normal matrix invertible
// on degenerate (constant-feature) training sets.
func NewModel(dim int, lambda float64) *Model {
	if lambda <= 0 {
		lambda = 1e-3
	}
	d := dim + 1 // + bias
	return &Model{
		dim:    dim,
		lambda: lambda,
		mean:   make([]float64, dim),
		m2:     make([]float64, dim),
		xtx:    make([]float64, d*d),
		xty:    make([]float64, d),
	}
}

// Count reports how many samples have been fitted.
func (m *Model) Count() int { return int(m.n) }

// ready reports whether the ridge has seen enough samples to fit more than
// its bias (a modest multiple of the dimension). Before, the correction is
// one constant factor, so the prior's ranking stands.
func (m *Model) ready() bool { return m.n >= int64(m.dim/2+3) }

// Fit absorbs one (features, prior, measured seconds) sample. A sample whose
// residual is not finite — a failed measurement, a non-positive prior —
// teaches nothing and is ignored. Once the ridge is past its warm-up the
// sample is first predicted, to update the prequential MAE, then folded into
// the normal equations.
func (m *Model) Fit(features []float64, prior, seconds float64) {
	y := math.Log(seconds / prior)
	if len(features) != m.dim || !(prior > 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return
	}
	if m.ready() {
		m.absErrSum += math.Abs(m.Predict(features, prior) - seconds)
		m.errCount++
	}
	m.coef = nil
	m.n++
	// Welford update, then standardize with the *updated* moments. The
	// slight non-stationarity of the standardization across samples is the
	// usual online-regression compromise; it vanishes as n grows.
	for i, v := range features {
		delta := v - m.mean[i]
		m.mean[i] += delta / float64(m.n)
		m.m2[i] += delta * (v - m.mean[i])
	}
	z := m.standardize(features)
	d := m.dim + 1
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			m.xtx[r*d+c] += z[r] * z[c]
		}
		m.xty[r] += z[r] * y
	}
}

// Predict estimates the run time in seconds of a candidate: prior ×
// exp(residual). With no samples (or a vector of the wrong length) the
// residual is 0 and the prediction is the prior exactly; during the warm-up
// it is the ridge's bias alone, the mean log residual.
func (m *Model) Predict(features []float64, prior float64) float64 {
	if len(features) != m.dim || m.n == 0 {
		return prior
	}
	if !m.ready() {
		return prior * math.Exp(m.xty[m.dim]/float64(m.n)) // bias column ⇒ Σ y
	}
	if m.coef == nil {
		m.coef = m.solve()
	}
	z := m.standardize(features)
	var residual float64
	for i, c := range m.coef {
		residual += c * z[i]
	}
	// Clamp the exponent so one wild extrapolation cannot produce ±Inf.
	residual = min(max(residual, -50), 50)
	return prior * math.Exp(residual)
}

// MAE returns the prequential mean absolute error in seconds of the
// combined prediction — each sample fitted after the warm-up, scored before
// the model saw it. 0 until the model has scored at least one sample.
func (m *Model) MAE() float64 {
	if m.errCount == 0 {
		return 0
	}
	return m.absErrSum / float64(m.errCount)
}

// standardize maps a raw feature vector to (x−μ)/σ with a trailing bias 1.
func (m *Model) standardize(features []float64) []float64 {
	z := make([]float64, m.dim+1)
	for i, v := range features {
		sd := 0.0
		if m.n > 1 {
			sd = math.Sqrt(m.m2[i] / float64(m.n-1))
		}
		if sd < 1e-12 {
			z[i] = 0 // constant feature carries no signal
		} else {
			z[i] = (v - m.mean[i]) / sd
		}
	}
	z[m.dim] = 1
	return z
}

// solve returns (XᵀX + λI)⁻¹ Xᵀy by Gaussian elimination with partial
// pivoting. The bias column is not penalized.
func (m *Model) solve() []float64 {
	d := m.dim + 1
	a := make([]float64, d*(d+1))
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			a[r*(d+1)+c] = m.xtx[r*d+c]
		}
		if r < m.dim {
			a[r*(d+1)+r] += m.lambda * float64(m.n)
		}
		a[r*(d+1)+d] = m.xty[r]
	}
	for col := 0; col < d; col++ {
		pivot := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r*(d+1)+col]) > math.Abs(a[pivot*(d+1)+col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot*(d+1)+col]) < 1e-30 {
			continue // dead column (all-zero feature); leave coefficient 0
		}
		if pivot != col {
			for c := 0; c <= d; c++ {
				a[col*(d+1)+c], a[pivot*(d+1)+c] = a[pivot*(d+1)+c], a[col*(d+1)+c]
			}
		}
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r*(d+1)+col] / a[col*(d+1)+col]
			for c := col; c <= d; c++ {
				a[r*(d+1)+c] -= f * a[col*(d+1)+c]
			}
		}
	}
	out := make([]float64, d)
	for i := 0; i < d; i++ {
		piv := a[i*(d+1)+i]
		if math.Abs(piv) >= 1e-30 {
			out[i] = a[i*(d+1)+d] / piv
		}
	}
	return out
}
