package cluster

import "fmt"

// PartitionBalanced splits a sequence of per-item costs into n contiguous
// stages minimizing the maximum stage cost — the classic linear
// partitioning problem, solved exactly by dynamic programming so the stage
// boundaries are deterministic (ties break toward the earliest feasible
// boundary, which the DP's strict-improvement scan yields naturally).
// It returns the stage extents as [n][2]int{start, end} half-open index
// ranges covering 0..len(costs). Every stage gets at least one item;
// len(costs) must be >= n.
func PartitionBalanced(costs []float64, n int) ([][2]int, error) {
	k := len(costs)
	if n < 1 {
		return nil, fmt.Errorf("cluster: partition into %d stages", n)
	}
	if k < n {
		return nil, fmt.Errorf("cluster: %d items across %d stages (every stage needs at least one)", k, n)
	}
	// prefix[i] = sum of costs[0:i].
	prefix := make([]float64, k+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}
	seg := func(a, b int) float64 { return prefix[b] - prefix[a] }

	// best[s][i]: minimal max-stage-cost splitting costs[0:i] into s+1
	// stages; cut[s][i]: the start index of the last stage in that optimum.
	best := make([][]float64, n)
	cut := make([][]int, n)
	for s := range best {
		best[s] = make([]float64, k+1)
		cut[s] = make([]int, k+1)
	}
	for i := 1; i <= k; i++ {
		best[0][i] = seg(0, i)
	}
	for s := 1; s < n; s++ {
		for i := s + 1; i <= k; i++ {
			bestCost, bestCut := -1.0, -1
			for j := s; j < i; j++ {
				c := best[s-1][j]
				if tail := seg(j, i); tail > c {
					c = tail
				}
				if bestCut < 0 || c < bestCost {
					bestCost, bestCut = c, j
				}
			}
			best[s][i], cut[s][i] = bestCost, bestCut
		}
	}

	out := make([][2]int, n)
	end := k
	for s := n - 1; s >= 1; s-- {
		start := cut[s][end]
		out[s] = [2]int{start, end}
		end = start
	}
	out[0] = [2]int{0, end}
	return out, nil
}

// PipelineSchedule is the aggregate timeline of streaming M micro-batches
// through S stages: stage s of micro-batch m starts when both its stage
// has finished micro-batch m-1 and stage s-1 has finished (and shipped)
// micro-batch m.
type PipelineSchedule struct {
	// Start[s][m] / Finish[s][m] are the fleet-clock interval of stage s
	// executing micro-batch m (transfer to the next stage excluded).
	Start, Finish [][]float64
	// TotalSeconds is when the last stage finishes the last micro-batch —
	// the fleet's aggregate machine time for the whole batch.
	TotalSeconds float64
	// CommSeconds sums every modeled stage-boundary transfer.
	CommSeconds float64
	// BubbleFraction is the idle share of the fleet during the pipeline:
	// 1 - busy / (S * TotalSeconds), busy summing every stage's execution
	// time over all micro-batches. Fill and drain make it
	// nonzero for any M < infinity; more micro-batches amortize it away.
	BubbleFraction float64
}

// SchedulePipeline computes the schedule from per-stage, per-micro-batch
// execution durations d[s][m] and per-boundary transfer times xfer[s]
// (stage s -> s+1; len(xfer) = len(d)-1). Purely arithmetic over
// deterministic inputs, so the schedule is deterministic too. It is the one
// clock of every fleet run: a stage is any step of a placement, lasting as
// long as its slowest group, and lockstep data parallelism is the case of
// one micro-batch, where each step starts when the previous one has
// finished and shipped its transfer.
func SchedulePipeline(d [][]float64, xfer []float64) (*PipelineSchedule, error) {
	s := len(d)
	if s == 0 {
		return nil, fmt.Errorf("cluster: pipeline with no stages")
	}
	m := len(d[0])
	if m == 0 {
		return nil, fmt.Errorf("cluster: pipeline with no micro-batches")
	}
	for i := range d {
		if len(d[i]) != m {
			return nil, fmt.Errorf("cluster: stage %d has %d micro-batches, stage 0 has %d", i, len(d[i]), m)
		}
	}
	if len(xfer) != s-1 {
		return nil, fmt.Errorf("cluster: %d stage boundaries, got %d transfer costs", s-1, len(xfer))
	}

	sched := &PipelineSchedule{Start: make([][]float64, s), Finish: make([][]float64, s)}
	for si := 0; si < s; si++ {
		sched.Start[si] = make([]float64, m)
		sched.Finish[si] = make([]float64, m)
	}
	stageBusy := make([]float64, s) // each stage's execution over all micro-batches
	for mi := 0; mi < m; mi++ {
		for si := 0; si < s; si++ {
			start := 0.0
			if mi > 0 {
				start = sched.Finish[si][mi-1]
			}
			if si > 0 {
				if ready := sched.Finish[si-1][mi] + xfer[si-1]; ready > start {
					start = ready
				}
				sched.CommSeconds += xfer[si-1]
			}
			sched.Start[si][mi] = start
			sched.Finish[si][mi] = start + d[si][mi]
			stageBusy[si] += d[si][mi]
		}
	}
	sched.TotalSeconds = sched.Finish[s-1][m-1]
	if sched.TotalSeconds > 0 {
		busy := 0.0
		for _, b := range stageBusy {
			busy += b
		}
		sched.BubbleFraction = 1 - busy/(float64(s)*sched.TotalSeconds)
	}
	return sched, nil
}
