package search

import (
	"errors"
	"fmt"
	"sort"
)

// errNoFeasible is returned when no index in the space evaluates to a
// valid candidate (e.g. every point overflows SPM).
var errNoFeasible = errors.New("search: no feasible candidate found in space")

// Point is one evaluated (compiled + analytically estimated + featurized)
// schedule candidate, identified by its stable streaming index.
type Point struct {
	Index    int
	Features []float64
	// Estimate is the analytic cost-model prediction in seconds — the
	// searcher's ranking signal until the learned model is warm.
	Estimate float64
}

// Measured is one ledger entry: a candidate that was actually run.
type Measured struct {
	Index   int
	Seconds float64
}

// Problem is everything a Searcher needs to optimize one schedule space.
// The searcher never touches internal/schedule or internal/exec directly —
// the tuner (internal/autotune) closes over them, keeping the search
// algorithms testable against synthetic spaces.
type Problem struct {
	// Radices is the mixed-radix shape of the space, most significant digit
	// first (schedule.Dims.Radices). The space size is the product.
	Radices []int
	// Size is the number of points in the space.
	Size int
	// Budget is the maximum number of candidates Measure may consume in
	// total. Searchers stop once it is exhausted.
	Budget int
	// Seed drives every random choice the searcher makes.
	Seed uint64
	// Seeds are transfer-seeded starting indices (nearest-neighbor winners
	// from the cache library mapped into this space). May be empty.
	Seeds []int
	// Eval compiles and featurizes the candidate at a streaming index
	// without running it. ok=false marks an invalid candidate (SPM
	// overflow, lowering failure) — searchers treat those as infeasible.
	Eval func(index int) (pt Point, ok bool)
	// Measure runs a batch of candidates and returns one entry per index
	// that produced a valid measurement, sorted by index. Implementations
	// own parallelism; the sorted return order is what keeps the search
	// deterministic across worker counts.
	Measure func(indices []int) []Measured
	// Report, when non-nil, is called after every round with cumulative
	// progress — the tuner maps it onto metrics and obsrv events.
	Report func(RoundInfo)
}

// RoundInfo is cumulative search progress after one
// propose→predict→measure→learn round.
type RoundInfo struct {
	Round       int     // 1-based completed round
	Proposed    int     // candidates proposed (evaluated) so far
	Pruned      int     // proposed but not measured (model said no)
	MeasuredN   int     // candidates measured so far
	BestIndex   int     // best index so far (-1 before first measurement)
	BestSeconds float64 // best measured seconds so far
	ModelMAE    float64 // prequential MAE of the learned model, seconds
	Converged   bool    // set on the final report when patience ran out
}

// Result is the outcome of a search.
type Result struct {
	// BestIndex/BestSeconds identify the fastest measured candidate,
	// ties broken by the lower index.
	BestIndex   int
	BestSeconds float64
	// Ledger lists every measured candidate in measurement order (batches
	// in round order, each batch sorted by index) — the reproducibility
	// record the determinism contract pins.
	Ledger []Measured
	// Proposed counts candidates the searcher evaluated (compiled +
	// predicted); Rounds counts measure rounds; Converged reports whether
	// the searcher stopped early because progress stalled (as opposed to
	// running out of budget).
	Proposed  int
	Rounds    int
	Converged bool
	// ModelMAE is the final prequential MAE of the learned model.
	ModelMAE float64
}

// Searcher explores a Problem under its budget.
type Searcher interface {
	// Name is the stable CLI identifier ("evo").
	Name() string
	// Search runs the loop. It must be deterministic: the same Problem
	// (radices, budget, seed, seeds, and Eval/Measure behavior) yields the
	// same Result regardless of how Measure parallelizes internally.
	Search(p *Problem) (Result, error)
}

// rng is a splitmix64 generator — tiny, fast and deterministic across
// platforms, so search runs reproduce exactly from their seed.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// float64 returns a uniform float in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

func (p *Problem) validate() error {
	if p.Size <= 0 {
		return fmt.Errorf("search: empty space")
	}
	if p.Eval == nil || p.Measure == nil {
		return fmt.Errorf("search: Problem needs Eval and Measure")
	}
	if p.Budget <= 0 {
		return fmt.Errorf("search: budget must be positive, got %d", p.Budget)
	}
	return nil
}

// BudgetFor converts a fractional budget (e.g. 0.10 = measure at most 10%
// of the space) into an absolute candidate count, clamped to [min(12,size),
// size]. The fraction truncates — a 0.10 budget never exceeds 10% of the
// space — and the floor of 12 keeps tiny spaces measuring enough points for
// the online model to become Ready (it needs FeatureLen/2+3 = 11 samples).
func BudgetFor(frac float64, size int) int {
	if size <= 0 {
		return 0
	}
	b := int(frac * float64(size))
	floor := 12
	if floor > size {
		floor = size
	}
	if b < floor {
		b = floor
	}
	if b > size {
		b = size
	}
	return b
}

// tracker is the searcher's bookkeeping: the evaluated-point
// memo, the learned model, the measured ledger and the running best.
type tracker struct {
	p        *Problem
	model    *Model
	points   map[int]Point // Eval memo (valid points only)
	invalid  map[int]bool  // Eval memo (invalid indices)
	measured map[int]float64
	ledger   []Measured
	best     Measured
	proposed int
	rounds   int
}

func newTracker(p *Problem) *tracker {
	return &tracker{
		p:        p,
		model:    NewModel(FeatureLen, 0),
		points:   map[int]Point{},
		invalid:  map[int]bool{},
		measured: map[int]float64{},
		best:     Measured{Index: -1},
	}
}

// eval memoizes Problem.Eval and counts proposals.
func (t *tracker) eval(idx int) (Point, bool) {
	if pt, ok := t.points[idx]; ok {
		return pt, true
	}
	if t.invalid[idx] {
		return Point{}, false
	}
	pt, ok := t.p.Eval(idx)
	t.proposed++
	if !ok {
		t.invalid[idx] = true
		return Point{}, false
	}
	pt.Index = idx
	t.points[idx] = pt
	return pt, true
}

// predict scores a point with the learned model once warm, the analytic
// estimate before that.
func (t *tracker) predict(pt Point) float64 {
	if t.model.Ready() {
		return t.model.Predict(pt.Features)
	}
	return pt.Estimate
}

// remaining returns the unexhausted measurement budget.
func (t *tracker) remaining() int { return t.p.Budget - len(t.ledger) }

// measure runs one batch (deduped, budget-clamped, sorted by index), feeds
// the results to the model and updates the ledger and best. It returns
// whether any measurement improved the best.
func (t *tracker) measure(indices []int) bool {
	batch := make([]int, 0, len(indices))
	seen := map[int]bool{}
	for _, idx := range indices {
		_, done := t.measured[idx]
		if !seen[idx] && !done && !t.invalid[idx] {
			seen[idx] = true
			batch = append(batch, idx)
		}
	}
	sort.Ints(batch)
	if rem := t.remaining(); len(batch) > rem {
		batch = batch[:rem]
	}
	if len(batch) == 0 {
		return false
	}
	t.rounds++
	improved := false
	for _, m := range t.p.Measure(batch) {
		t.measured[m.Index] = m.Seconds
		t.ledger = append(t.ledger, m)
		if pt, ok := t.points[m.Index]; ok {
			t.model.Fit(pt.Features, m.Seconds)
		}
		if t.best.Index < 0 || m.Seconds < t.best.Seconds ||
			(m.Seconds == t.best.Seconds && m.Index < t.best.Index) {
			if t.best.Index < 0 || m.Seconds < t.best.Seconds {
				improved = true
			}
			t.best = m
		}
	}
	return improved
}

// report invokes the Problem's progress hook.
func (t *tracker) report(converged bool) {
	if t.p.Report == nil {
		return
	}
	t.p.Report(RoundInfo{
		Round:       t.rounds,
		Proposed:    t.proposed,
		Pruned:      t.proposed - len(t.ledger),
		MeasuredN:   len(t.ledger),
		BestIndex:   t.best.Index,
		BestSeconds: t.best.Seconds,
		ModelMAE:    t.model.MAE(),
		Converged:   converged,
	})
}

// result freezes the tracker into a Result.
func (t *tracker) result(converged bool) (Result, error) {
	if t.best.Index < 0 {
		return Result{}, fmt.Errorf("search: no candidate produced a valid measurement")
	}
	return Result{
		BestIndex:   t.best.Index,
		BestSeconds: t.best.Seconds,
		Ledger:      t.ledger,
		Proposed:    t.proposed,
		Rounds:      t.rounds,
		Converged:   converged,
		ModelMAE:    t.model.MAE(),
	}, nil
}

// candidate pairs an evaluated point with its current prediction for
// ranking. Ties break by index so ranking is total and deterministic.
type candidate struct {
	pt   Point
	pred float64
}

func rankCandidates(cands []candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].pred != cands[j].pred {
			return cands[i].pred < cands[j].pred
		}
		return cands[i].pt.Index < cands[j].pt.Index
	})
}

// selectBatch picks up to n candidates from the ranked list: the top share
// by prediction plus an ε share drawn uniformly from the rest (ε-greedy
// exploration keeps the model from tunnel vision). cands must already be
// ranked.
func selectBatch(cands []candidate, n int, epsilon float64, r *rng) []int {
	if n > len(cands) {
		n = len(cands)
	}
	if n <= 0 {
		return nil
	}
	explore := int(epsilon * float64(n))
	exploit := n - explore
	out := make([]int, 0, n)
	for i := 0; i < exploit; i++ {
		out = append(out, cands[i].pt.Index)
	}
	// Explore: uniform picks from the unexploited tail, without
	// replacement (Fisher–Yates over a copy of the tail positions).
	tail := make([]int, 0, len(cands)-exploit)
	for i := exploit; i < len(cands); i++ {
		tail = append(tail, cands[i].pt.Index)
	}
	for i := 0; i < explore && len(tail) > 0; i++ {
		j := r.intn(len(tail))
		out = append(out, tail[j])
		tail[j] = tail[len(tail)-1]
		tail = tail[:len(tail)-1]
	}
	return out
}
