package cluster

import (
	"math"
	"testing"

	"swatop/internal/metrics"
	"swatop/internal/sw26010"
)

func TestNewFleet(t *testing.T) {
	f, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("size = %d", f.Size())
	}
	seen := map[*sw26010.Machine]bool{}
	for i := 0; i < 4; i++ {
		m := f.Machine(i)
		if m == nil || seen[m] {
			t.Fatalf("group %d: machine nil or shared", i)
		}
		seen[m] = true
		if m.Now() != 0 {
			t.Fatalf("group %d starts at %g", i, m.Now())
		}
	}
	if _, err := New(0); err == nil {
		t.Fatal("fleet of size 0 must error")
	}
}

func TestShardBatch(t *testing.T) {
	cases := []struct {
		b, n int
		want []int
	}{
		{8, 4, []int{2, 2, 2, 2}},
		{8, 3, []int{3, 3, 2}},
		{7, 2, []int{4, 3}},
		{4, 4, []int{1, 1, 1, 1}},
		{5, 1, []int{5}},
		// batch < groups: trailing shards are zero (skipped, not executed),
		// never silently redistributed.
		{3, 4, []int{1, 1, 1, 0}},
		{1, 4, []int{1, 0, 0, 0}},
		{2, 3, []int{1, 1, 0}},
	}
	for _, c := range cases {
		got, err := ShardBatch(c.b, c.n)
		if err != nil {
			t.Fatalf("ShardBatch(%d,%d): %v", c.b, c.n, err)
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Fatalf("ShardBatch(%d,%d) = %v, want %v", c.b, c.n, got, c.want)
			}
		}
		if sum != c.b {
			t.Fatalf("shards %v do not sum to %d", got, c.b)
		}
	}
	if _, err := ShardBatch(0, 4); err == nil {
		t.Fatal("batch 0 must error: there are no samples to distribute")
	}
	if _, err := ShardBatch(4, 0); err == nil {
		t.Fatal("zero groups must error")
	}
}

func TestCommCostModels(t *testing.T) {
	if GatherSeconds(0, 1) != 0 {
		t.Fatal("single group gather must be free")
	}
	g2 := GatherSeconds(1<<20, 2)
	g4 := GatherSeconds(1<<20, 4)
	if g2 <= 0 || g4 <= g2 {
		t.Fatalf("gather not monotone in groups: %g vs %g", g2, g4)
	}
	big := GatherSeconds(1<<24, 4)
	if big <= g4 {
		t.Fatalf("gather not monotone in bytes: %g vs %g", big, g4)
	}
	if AllGatherSeconds(1<<20, 1) != 0 {
		t.Fatal("single group all-gather must be free")
	}
	ag4 := AllGatherSeconds(1<<20, 4)
	if ag4 <= 0 || ag4 <= AllGatherSeconds(1<<20, 2) {
		t.Fatalf("all-gather not monotone in groups: %g", ag4)
	}
	if AllGatherSeconds(1<<24, 4) <= ag4 {
		t.Fatal("all-gather not monotone in bytes")
	}
	// Moving the full buffer once per group vs the lead group pulling the
	// remote shards: same bytes on the bottleneck path, same sync count.
	if ag4 != GatherSeconds(1<<20, 4) {
		t.Fatalf("all-gather %g != gather %g of the same buffer", ag4, GatherSeconds(1<<20, 4))
	}
	if AllGatherSeconds(0, 4) != 3*GroupSyncSeconds {
		t.Fatal("empty all-gather must still synchronize")
	}
	if StageTransferSeconds(0) != 0 {
		t.Fatal("empty stage transfer must be free")
	}
	if x := StageTransferSeconds(1 << 20); x <= GroupSyncSeconds {
		t.Fatalf("stage transfer %g does not include the byte cost", x)
	}
}

func TestFleetPublish(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := f.Machine(i)
		req := sw26010.DMARequest{BlockBytes: 128, BlockCount: i + 1, StrideBytes: 256, CPEs: sw26010.NumCPE}
		if err := m.IssueDMA("r", req); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitDMA("r", 1); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	f.Publish(reg)
	s := reg.Snapshot()
	g0 := s.Gauges["group0_machine_dma_blocks_total"]
	g1 := s.Gauges["group1_machine_dma_blocks_total"]
	if g0 <= 0 || g1 <= 0 || g0 == g1 {
		t.Fatalf("per-group gauges wrong: %g, %g", g0, g1)
	}
	if got := s.Gauges["machine_dma_blocks_total"]; got != g0+g1 {
		t.Fatalf("aggregate %g != %g + %g", got, g0, g1)
	}
	if got := s.Gauges["fleet_groups"]; got != 2 {
		t.Fatalf("fleet_groups = %g", got)
	}
	f.Publish(nil) // no-op
}

func TestPartitionBalanced(t *testing.T) {
	costs := []float64{5, 1, 1, 1, 5, 1, 1, 1}
	stages, err := PartitionBalanced(costs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal split is down the middle: max stage cost 8.
	if stages[0] != [2]int{0, 4} || stages[1] != [2]int{4, 8} {
		t.Fatalf("stages = %v", stages)
	}

	// Extents must tile the index range for any shape.
	costs = []float64{3, 9, 2, 2, 7, 1, 4}
	for n := 1; n <= len(costs); n++ {
		stages, err := PartitionBalanced(costs, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(stages) != n || stages[0][0] != 0 || stages[n-1][1] != len(costs) {
			t.Fatalf("n=%d: stages %v do not cover", n, stages)
		}
		for s := 1; s < n; s++ {
			if stages[s][0] != stages[s-1][1] || stages[s][0] >= stages[s][1] {
				t.Fatalf("n=%d: stages %v not contiguous/nonempty", n, stages)
			}
		}
	}

	// DP optimum: 4 stages over the shape above has max-stage 11
	// ([3][9][2 2 7][1 4]); every other 4-way split is >= 12.
	stages, err = PartitionBalanced(costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	maxStage := 0.0
	for _, st := range stages {
		sum := 0.0
		for i := st[0]; i < st[1]; i++ {
			sum += costs[i]
		}
		if sum > maxStage {
			maxStage = sum
		}
	}
	if maxStage != 11 {
		t.Fatalf("max stage cost %g, want 11 (stages %v)", maxStage, stages)
	}

	if _, err := PartitionBalanced([]float64{1}, 2); err == nil {
		t.Fatal("more stages than items must error")
	}
}

func TestSchedulePipeline(t *testing.T) {
	// Two perfectly balanced stages, no transfer cost: the classic
	// pipeline diagram. d = 1s each, M = 3.
	d := [][]float64{{1, 1, 1}, {1, 1, 1}}
	sched, err := SchedulePipeline(d, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalSeconds != 4 { // fill 1 + 3 on stage 1
		t.Fatalf("total = %g, want 4", sched.TotalSeconds)
	}
	// Bubble: 8s capacity (2 stages x 4s), 6s busy -> 1/4.
	if math.Abs(sched.BubbleFraction-0.25) > 1e-12 {
		t.Fatalf("bubble = %g, want 0.25", sched.BubbleFraction)
	}
	if sched.Start[1][0] != 1 || sched.Start[0][2] != 2 {
		t.Fatalf("schedule wrong: %+v", sched.Start)
	}

	// Transfer cost delays the downstream stage.
	sched, err = SchedulePipeline(d, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Start[1][0] != 1.5 {
		t.Fatalf("transfer not applied: start = %g", sched.Start[1][0])
	}
	if sched.CommSeconds != 1.5 { // 3 micro-batches x 0.5
		t.Fatalf("comm = %g", sched.CommSeconds)
	}

	// An unbalanced slow stage dominates: total = fill + M * slow.
	d = [][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}}
	sched, err = SchedulePipeline(d, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalSeconds != 1+4*2 {
		t.Fatalf("total = %g, want 9", sched.TotalSeconds)
	}

	// Malformed inputs error.
	if _, err := SchedulePipeline(nil, nil); err == nil {
		t.Fatal("no stages must error")
	}
	if _, err := SchedulePipeline([][]float64{{1}, {1, 2}}, []float64{0}); err == nil {
		t.Fatal("ragged micro-batches must error")
	}
	if _, err := SchedulePipeline([][]float64{{1}, {1}}, nil); err == nil {
		t.Fatal("missing transfer costs must error")
	}
}
