package search

import (
	"math"
	"sort"
	"testing"
)

// TestModelLearnsLinearTarget: the ridge regressor must recover a simple
// monotone relationship the prior misses well enough to rank candidates.
func TestModelLearnsLinearTarget(t *testing.T) {
	m := NewModel(3, 0)
	r := newRNG(7)
	gen := func() ([]float64, float64, float64) {
		f := []float64{r.float64() * 10, r.float64() * 2, r.float64()}
		// log-linear target: seconds = exp(0.3·f0 − 0.5·f1 + 0.1), against a
		// prior that sees f0 only.
		return f, math.Exp(0.3 * f[0]), math.Exp(0.3*f[0] - 0.5*f[1] + 0.1)
	}
	for i := 0; i < 200; i++ {
		f, prior, y := gen()
		m.Fit(f, prior, y)
	}
	if m.Count() != 200 {
		t.Fatalf("Count = %d", m.Count())
	}
	// Rank check on fresh pairs: the faster point must predict faster.
	good, total := 0, 0
	for i := 0; i < 100; i++ {
		fa, pa, ya := gen()
		fb, pb, yb := gen()
		if math.Abs(ya-yb)/math.Max(ya, yb) < 0.05 {
			continue // too close to call
		}
		total++
		if (m.Predict(fa, pa) < m.Predict(fb, pb)) == (ya < yb) {
			good++
		}
	}
	if total == 0 || float64(good)/float64(total) < 0.9 {
		t.Fatalf("rank accuracy %d/%d", good, total)
	}
	if m.MAE() <= 0 {
		t.Fatalf("prequential MAE = %v, want > 0", m.MAE())
	}
}

// TestModelNoSamplesIsPrior: a model that has fitted nothing predicts every
// candidate's prior exactly.
func TestModelNoSamplesIsPrior(t *testing.T) {
	m := NewModel(FeatureLen, 0)
	r := newRNG(3)
	for i := 0; i < 100; i++ {
		f := make([]float64, FeatureLen)
		for k := range f {
			f[k] = r.float64()*100 - 50
		}
		prior := math.Exp(r.float64()*40 - 30)
		if got := m.Predict(f, prior); got != prior {
			t.Fatalf("prediction %v with no samples, want the prior %v", got, prior)
		}
	}
}

// TestModelLearnsScaledPrior: on a space where every measurement is c × its
// estimate, the prediction comes back as c × estimate within 1e-9 relative
// error once the ridge is past its warm-up — the residual is the bias alone
// — and so ranks candidates exactly as the prior does.
func TestModelLearnsScaledPrior(t *testing.T) {
	const c = 1.37
	r := newRNG(11)
	point := func() ([]float64, float64) {
		f := make([]float64, FeatureLen)
		for k := range f {
			f[k] = r.float64() * 10
		}
		return f, 1e-4 * math.Exp(r.float64()*6)
	}
	m := NewModel(FeatureLen, 0)
	for i := 0; i < 40; i++ {
		f, est := point()
		m.Fit(f, est, c*est)
	}
	if !m.ready() {
		t.Fatal("40 samples did not pass the warm-up")
	}
	type scored struct{ est, pred float64 }
	var fresh []scored
	for i := 0; i < 200; i++ {
		f, est := point()
		pred := m.Predict(f, est)
		if rel := math.Abs(pred-c*est) / (c * est); rel > 1e-9 {
			t.Fatalf("prediction %v for c × estimate %v: relative error %.3g", pred, c*est, rel)
		}
		fresh = append(fresh, scored{est, pred})
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].est < fresh[j].est })
	for i := 1; i < len(fresh); i++ {
		if fresh[i].pred < fresh[i-1].pred {
			t.Fatalf("the model ranks estimates %v < %v the other way round", fresh[i-1].est, fresh[i].est)
		}
	}
}

// TestModelPrequentialMAE: the MAE is in seconds of the combined prediction,
// counted over the samples fitted after the warm-up, each scored before it
// was fitted.
func TestModelPrequentialMAE(t *testing.T) {
	m := NewModel(4, 0)
	r := newRNG(5)
	var sum float64
	var scored int
	for i := 0; i < 30; i++ {
		f := []float64{r.float64(), r.float64(), r.float64(), r.float64()}
		est := 1e-3 * (1 + f[0])
		secs := est * (1 + f[1]) * (1 + 0.1*r.float64())
		if m.ready() {
			sum += math.Abs(m.Predict(f, est) - secs)
			scored++
		}
		m.Fit(f, est, secs)
	}
	if warm := 4/2 + 3; scored != 30-warm {
		t.Fatalf("%d samples scored, want the %d fitted after the warm-up of %d", scored, 30-warm, warm)
	}
	if got, want := m.MAE(), sum/float64(scored); got != want {
		t.Fatalf("MAE = %v, want %v", got, want)
	}
}

// TestModelDeterminism: identical Fit sequences yield identical predictions.
func TestModelDeterminism(t *testing.T) {
	build := func() *Model {
		m := NewModel(4, 0)
		r := newRNG(42)
		for i := 0; i < 50; i++ {
			f := []float64{r.float64(), r.float64(), r.float64(), r.float64()}
			m.Fit(f, 1+f[0], 1+r.float64())
		}
		return m
	}
	a, b := build(), build()
	probe := []float64{0.3, 0.7, 0.1, 0.9}
	if a.Predict(probe, 1.3) != b.Predict(probe, 1.3) {
		t.Fatalf("nondeterministic: %v vs %v", a.Predict(probe, 1.3), b.Predict(probe, 1.3))
	}
	if a.MAE() != b.MAE() {
		t.Fatalf("nondeterministic MAE: %v vs %v", a.MAE(), b.MAE())
	}
}

// TestModelRejectsGarbage: non-finite targets, non-positive priors and
// wrong-length vectors are ignored, and predictions stay finite regardless.
func TestModelRejectsGarbage(t *testing.T) {
	m := NewModel(2, 0)
	m.Fit([]float64{1, 2}, 1, math.NaN())
	m.Fit([]float64{1, 2}, 1, math.Inf(1))
	m.Fit([]float64{1, 2}, 1, -1)
	m.Fit([]float64{1, 2}, 0, 5)
	m.Fit([]float64{1, 2}, -1, -5)
	m.Fit([]float64{1, 2}, math.NaN(), 5)
	m.Fit([]float64{1}, 1, 5)
	if m.Count() != 0 {
		t.Fatalf("garbage fitted: Count = %d", m.Count())
	}
	for i := 0; i < 20; i++ {
		m.Fit([]float64{float64(i), float64(i % 3)}, 1, float64(1+i))
	}
	p := m.Predict([]float64{1e9, -1e9}, 1)
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("prediction not finite: %v", p)
	}
}

// TestBudgetFor pins the fraction→count clamping.
func TestBudgetFor(t *testing.T) {
	cases := []struct {
		frac float64
		size int
		want int
	}{
		{0.10, 1000, 100},
		{0.10, 50, 12},  // floor
		{0.10, 10, 10},  // floor capped at size
		{1.5, 100, 100}, // cap at size
		{0.10, 129, 12}, // truncates: never exceeds the fraction
		{0.10, 0, 0},
	}
	for _, c := range cases {
		if got := BudgetFor(c.frac, c.size); got != c.want {
			t.Errorf("BudgetFor(%v, %d) = %d, want %d", c.frac, c.size, got, c.want)
		}
	}
}
