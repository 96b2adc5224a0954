package schedule_test

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"

	"swatop/internal/dsl"
	"swatop/internal/goldenpoints"
	"swatop/internal/schedule"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/order_golden.json from schedule.Stream (only in a commit that changes no other code)")

const orderGoldenFile = "testdata/order_golden.json"

// orderSpace is one schedule space of the golden: its size and the strategy
// at every index (spaces of at most orderAllBelow points) or at orderSampled
// seeded indices.
type orderSpace struct {
	Op     string         `json:"op"`
	Space  string         `json:"space"` // "own" or "widened" (goldenpoints' prefetch × padding arms)
	Size   int            `json:"size"`
	Points map[int]string `json:"points"` // index → Strategy.String()
}

const (
	orderAllBelow = 512
	orderSampled  = 64
)

// orderSpaces lists the golden's spaces: the gemm, implicit, explicit and
// Winograd operators of goldenpoints, each with its own space and with the
// widened one the estimate and run goldens sample.
func orderSpaces(t *testing.T) (ops []goldenpoints.Op, spaces []*dsl.Space, labels []string) {
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Op.Name()] {
			continue
		}
		seen[p.Op.Name()] = true
		wide := *p.Op.Space()
		wide.DoubleBuffer = []bool{true, false}
		wide.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
		ops = append(ops, p.Op, p.Op)
		spaces = append(spaces, p.Op.Space(), &wide)
		labels = append(labels, "own", "widened")
	}
	return ops, spaces, labels
}

// TestOrderGolden pins the point order of the schedule space — the contract
// behind worker-invariant tuning, the searcher's index space, cache transfer
// and the 144 golden points — against data generated from the recursive
// Cartesian walk that first defined it.
func TestOrderGolden(t *testing.T) {
	ops, spaces, labels := orderSpaces(t)
	if *updateGolden {
		writeOrderGolden(t, ops, spaces, labels)
	}
	raw, err := os.ReadFile(orderGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []orderSpace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ops) {
		t.Fatalf("golden holds %d spaces, want %d", len(want), len(ops))
	}
	for i, w := range want {
		if w.Op != ops[i].Name() || w.Space != labels[i] {
			t.Fatalf("space %d is %s/%s, golden says %s/%s", i, ops[i].Name(), labels[i], w.Op, w.Space)
		}
		dims, err := schedule.Describe(ops[i].Seed(), spaces[i])
		if err != nil {
			t.Fatal(err)
		}
		if dims.Size() != w.Size {
			t.Fatalf("%s/%s: Size() = %d, golden %d", w.Op, w.Space, dims.Size(), w.Size)
		}
		for idx, st := range w.Points {
			if got := dims.At(idx).String(); got != st {
				t.Fatalf("%s/%s: At(%d) = %s, golden %s", w.Op, w.Space, idx, got, st)
			}
		}
	}
}

func writeOrderGolden(t *testing.T, ops []goldenpoints.Op, spaces []*dsl.Space, labels []string) {
	rng := rand.New(rand.NewSource(24))
	var out []orderSpace
	for i, op := range ops {
		var all []string
		if err := schedule.Stream(op.Seed(), spaces[i], func(idx int, st dsl.Strategy) bool {
			if idx != len(all) {
				t.Fatalf("%s/%s: Stream yielded index %d at position %d", op.Name(), labels[i], idx, len(all))
			}
			all = append(all, st.String())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		indices := rng.Perm(len(all))
		if len(all) > orderAllBelow {
			indices = indices[:orderSampled]
		}
		sp := orderSpace{Op: op.Name(), Space: labels[i], Size: len(all), Points: map[int]string{}}
		for _, idx := range indices {
			sp.Points[idx] = all[idx]
		}
		out = append(out, sp)
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orderGoldenFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
