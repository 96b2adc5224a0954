package search

import "sort"

// Evolutionary is the genetic searcher: a population of schedule points
// breeds offspring by digit-wise crossover and mutation over the
// mixed-radix index space, the model (each point's analytic estimate
// corrected by what the measurements taught) ranks the offspring, and only
// the top predictions — plus an ε-greedy exploration share — are measured
// for real. Measured times train the model, the fittest measured points
// form the next generation's parents, and the loop converges when patience
// rounds pass without improvement or the budget runs out.
type Evolutionary struct{}

const (
	population = 24 // the parent-pool size
	// batchSize is how many candidates each round measures: one
	// launch-overhead charge buys eight measurements.
	batchSize         = 8
	offspringPerRound = 4 * batchSize // children bred and predicted per round
	// epsilon is the exploration share of each measured batch, drawn
	// uniformly instead of by predicted rank.
	epsilon = 0.15
	// mutationRate is the per-digit mutation probability applied to every
	// child after crossover.
	mutationRate = 0.25
	// patience is how many consecutive rounds without a new best the
	// searcher tolerates before declaring convergence.
	patience = 4
)

// Name implements Searcher.
func (e *Evolutionary) Name() string { return "evo" }

// Search implements Searcher.
func (e *Evolutionary) Search(p *Problem) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	r := newRNG(p.Seed)
	t := newTracker(p)
	radices := p.Radices

	// Generation zero: transfer seeds first (cached winners of neighboring
	// shapes mapped into this space), then uniform random points until the
	// population is full. Invalid points are skipped; the attempt cap keeps
	// degenerate spaces (almost everything infeasible) from spinning.
	var pool []candidate
	inPool := map[int]bool{}
	add := func(idx int) {
		if inPool[idx] {
			return
		}
		if pt, ok := t.eval(idx); ok {
			inPool[idx] = true
			pool = append(pool, candidate{pt: pt, pred: t.predict(pt)})
		}
	}
	for _, idx := range p.Seeds {
		if idx >= 0 && idx < p.Size {
			add(idx)
		}
	}
	for tries := 0; len(pool) < population && tries < 20*population; tries++ {
		add(r.intn(p.Size))
	}
	if len(pool) == 0 {
		return Result{}, errNoFeasible
	}

	// First batch: measure the best-estimated points of generation zero so
	// the model has training data before any breeding happens.
	rankCandidates(pool)
	first := make([]int, 0, batchSize)
	for i := 0; i < len(pool) && i < batchSize; i++ {
		first = append(first, pool[i].pt.Index)
	}
	t.measure(first)
	t.report(false)

	stall := 0
	for t.remaining() > 0 && stall < patience {
		parents := t.parents(population)
		if len(parents) == 0 {
			parents = pool
		}
		// Breed. Parent choice is rank-biased (min of two uniform draws),
		// crossover is uniform per digit, then per-digit mutation.
		offspring := make([]candidate, 0, offspringPerRound)
		offSeen := map[int]bool{}
		for b := 0; b < 4*offspringPerRound && len(offspring) < offspringPerRound; b++ {
			pa := parents[min(r.intn(len(parents)), r.intn(len(parents)))]
			pb := parents[min(r.intn(len(parents)), r.intn(len(parents)))]
			da := digitsOf(pa.pt.Index, radices)
			db := digitsOf(pb.pt.Index, radices)
			child := make([]int, len(da))
			for i := range child {
				if r.float64() < 0.5 {
					child[i] = da[i]
				} else {
					child[i] = db[i]
				}
				if r.float64() < mutationRate {
					child[i] = r.intn(radices[i])
				}
			}
			idx := indexOf(child, radices)
			if offSeen[idx] || t.alreadyMeasured(idx) {
				continue
			}
			offSeen[idx] = true
			if pt, ok := t.eval(idx); ok {
				offspring = append(offspring, candidate{pt: pt, pred: t.predict(pt)})
			}
		}
		if len(offspring) == 0 {
			// The population has inbred to a corner; reseed randomly.
			for tries := 0; len(offspring) < batchSize && tries < 10*batchSize; tries++ {
				idx := r.intn(p.Size)
				if offSeen[idx] || t.alreadyMeasured(idx) {
					continue
				}
				offSeen[idx] = true
				if pt, ok := t.eval(idx); ok {
					offspring = append(offspring, candidate{pt: pt, pred: t.predict(pt)})
				}
			}
			if len(offspring) == 0 {
				break // space exhausted
			}
		}
		rankCandidates(offspring)
		batch := selectBatch(offspring, batchSize, epsilon, r)
		if t.measure(batch) {
			stall = 0
		} else {
			stall++
		}
		converged := stall >= patience
		t.report(converged)
		// Refresh pool predictions with the newly fitted model and fold in
		// the offspring, so next round's parents reflect what was learned.
		pool = append(pool, offspring...)
		for i := range pool {
			pool[i].pred = t.predict(pool[i].pt)
		}
	}
	return t.result(stall >= patience)
}

// parents returns the measured elite, fastest first — the breeding pool.
func (t *tracker) parents(n int) []candidate {
	elite := make([]Measured, 0, len(t.measured))
	for idx, secs := range t.measured {
		elite = append(elite, Measured{Index: idx, Seconds: secs})
	}
	sort.Slice(elite, func(i, j int) bool {
		if elite[i].Seconds != elite[j].Seconds {
			return elite[i].Seconds < elite[j].Seconds
		}
		return elite[i].Index < elite[j].Index
	})
	if len(elite) > n {
		elite = elite[:n]
	}
	out := make([]candidate, 0, len(elite))
	for _, m := range elite {
		if pt, ok := t.points[m.Index]; ok {
			out = append(out, candidate{pt: pt, pred: m.Seconds})
		}
	}
	return out
}

func (t *tracker) alreadyMeasured(idx int) bool {
	_, ok := t.measured[idx]
	return ok
}

// digitsOf decodes an index into mixed-radix digits, most significant
// first — the digit order of schedule.Dims, on plain ints so the searchers
// stay decoupled from internal/schedule.
func digitsOf(idx int, radices []int) []int {
	digits := make([]int, len(radices))
	for i := len(radices) - 1; i >= 0; i-- {
		digits[i] = idx % radices[i]
		idx /= radices[i]
	}
	return digits
}

// indexOf re-encodes digits, clamping out-of-radix values.
func indexOf(digits []int, radices []int) int {
	idx := 0
	for i, r := range radices {
		d := digits[i]
		if d < 0 {
			d = 0
		}
		if d >= r {
			d = r - 1
		}
		idx = idx*r + d
	}
	return idx
}
