package search

import "sort"

// Evolutionary is the genetic searcher: a population of schedule points
// breeds offspring by digit-wise crossover and mutation over the
// mixed-radix index space, the learned model (analytic estimate until the
// model is warm) ranks the offspring, and only the top predictions — plus
// an ε-greedy exploration share — are measured for real. Measured times
// train the model, the fittest measured points form the next generation's
// parents, and the loop converges when Patience rounds pass without
// improvement or the budget runs out.
type Evolutionary struct {
	// Population is the parent-pool size. 0 defaults to 24.
	Population int
	// BatchSize is how many candidates each round measures. 0 defaults to
	// 8 (one launch-overhead charge buys eight measurements).
	BatchSize int
	// OffspringPerRound is how many children are bred and predicted each
	// round. 0 defaults to 4× BatchSize.
	OffspringPerRound int
	// Epsilon is the exploration fraction of each measured batch drawn
	// uniformly instead of by predicted rank. 0 defaults to 0.15.
	Epsilon float64
	// MutationRate is the per-digit mutation probability applied to every
	// child after crossover. 0 defaults to 0.25.
	MutationRate float64
	// Patience is how many consecutive rounds without a new best the
	// searcher tolerates before declaring convergence. 0 defaults to 4.
	Patience int
}

// Name implements Searcher.
func (e *Evolutionary) Name() string { return "evo" }

func (e *Evolutionary) defaults() Evolutionary {
	d := *e
	if d.Population <= 0 {
		d.Population = 24
	}
	if d.BatchSize <= 0 {
		d.BatchSize = 8
	}
	if d.OffspringPerRound <= 0 {
		d.OffspringPerRound = 4 * d.BatchSize
	}
	if d.Epsilon <= 0 {
		d.Epsilon = 0.15
	}
	if d.MutationRate <= 0 {
		d.MutationRate = 0.25
	}
	if d.Patience <= 0 {
		d.Patience = 4
	}
	return d
}

// Search implements Searcher.
func (e *Evolutionary) Search(p *Problem) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	cfg := e.defaults()
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
	for tries := 0; len(pool) < cfg.Population && tries < 20*cfg.Population; tries++ {
		add(r.intn(p.Size))
	}
	if len(pool) == 0 {
		return Result{}, errNoFeasible
	}

	// First batch: measure the best-estimated points of generation zero so
	// the model has training data before any breeding happens.
	rankCandidates(pool)
	first := make([]int, 0, cfg.BatchSize)
	for i := 0; i < len(pool) && i < cfg.BatchSize; i++ {
		first = append(first, pool[i].pt.Index)
	}
	t.measure(first)
	t.report(false)

	stall := 0
	for t.remaining() > 0 && stall < cfg.Patience {
		parents := t.parents(cfg.Population)
		if len(parents) == 0 {
			parents = pool
		}
		// Breed. Parent choice is rank-biased (min of two uniform draws),
		// crossover is uniform per digit, then per-digit mutation.
		offspring := make([]candidate, 0, cfg.OffspringPerRound)
		offSeen := map[int]bool{}
		for b := 0; b < 4*cfg.OffspringPerRound && len(offspring) < cfg.OffspringPerRound; b++ {
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
				if r.float64() < cfg.MutationRate {
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
			for tries := 0; len(offspring) < cfg.BatchSize && tries < 10*cfg.BatchSize; tries++ {
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
		batch := selectBatch(offspring, cfg.BatchSize, cfg.Epsilon, r)
		if t.measure(batch) {
			stall = 0
		} else {
			stall++
		}
		converged := stall >= cfg.Patience
		t.report(converged)
		// Refresh pool predictions with the newly fitted model and fold in
		// the offspring, so next round's parents reflect what was learned.
		pool = append(pool, offspring...)
		for i := range pool {
			pool[i].pred = t.predict(pool[i].pt)
		}
	}
	return t.result(stall >= cfg.Patience)
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
