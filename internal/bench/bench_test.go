package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func snapshot(workloads ...Workload) *Snapshot {
	return &Snapshot{Schema: SchemaVersion, Name: "test", GoVersion: "go0", Workloads: workloads}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := snapshot(Workload{Name: "gemm-2048", MachineSeconds: 0.0237,
		WallSeconds: 1.5, Candidates: 768, GFLOPS: 722.6})
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != 1 || !reflect.DeepEqual(got.Workloads[0], want.Workloads[0]) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Lookup("gemm-2048") == nil || got.Lookup("missing") != nil {
		t.Fatal("Lookup broken")
	}
}

func TestLoadRejectsBadSnapshots(t *testing.T) {
	dir := t.TempDir()
	wrongSchema := filepath.Join(dir, "schema.json")
	s := snapshot(Workload{Name: "x", MachineSeconds: 1})
	s.Schema = SchemaVersion + 1
	if err := s.WriteFile(wrongSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(wrongSchema); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := snapshot().WriteFile(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil || !strings.Contains(err.Error(), "no workloads") {
		t.Fatalf("empty snapshot accepted: %v", err)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCompare(t *testing.T) {
	base := snapshot(
		Workload{Name: "gemm", MachineSeconds: 0.100},
		Workload{Name: "vgg", MachineSeconds: 0.200},
	)

	// Identical: passes at zero tolerance.
	if d := Compare(base, base, 0); !d.OK() {
		t.Fatalf("identical snapshots regressed: %+v", d.Deltas)
	}

	// 0.5% slower passes at 1% tolerance, fails at 0.1%.
	cur := snapshot(
		Workload{Name: "gemm", MachineSeconds: 0.1005},
		Workload{Name: "vgg", MachineSeconds: 0.200},
	)
	if d := Compare(cur, base, 1.0); !d.OK() {
		t.Fatalf("within-tolerance drift regressed: %+v", d.Deltas)
	}
	d := Compare(cur, base, 0.1)
	if d.OK() {
		t.Fatal("0.5%% drift passed a 0.1%% gate")
	}
	if got := d.Regressions(); len(got) != 1 || got[0] != "gemm" {
		t.Fatalf("Regressions = %v", got)
	}

	// Getting faster is never a regression.
	faster := snapshot(
		Workload{Name: "gemm", MachineSeconds: 0.05},
		Workload{Name: "vgg", MachineSeconds: 0.19},
	)
	if d := Compare(faster, base, 0); !d.OK() {
		t.Fatalf("speedup flagged as regression: %+v", d.Deltas)
	}

	// A baseline workload the current run lacks is a regression; an extra
	// current workload is not.
	partial := snapshot(
		Workload{Name: "gemm", MachineSeconds: 0.1},
		Workload{Name: "brand-new", MachineSeconds: 9},
	)
	d = Compare(partial, base, 5)
	if d.OK() {
		t.Fatal("missing baseline workload passed")
	}
	if got := d.Regressions(); len(got) != 1 || got[0] != "vgg" {
		t.Fatalf("Regressions = %v", got)
	}
	if !strings.Contains(d.String(), "missing") || !strings.Contains(d.String(), "REGRESSED") {
		t.Fatalf("report does not show the miss:\n%s", d.String())
	}
}

// TestCommittedBaselineLoads: Load refuses a field the Workload schema has
// dropped, and the committed BENCH_baseline.json carries none.
func TestCommittedBaselineLoads(t *testing.T) {
	if _, err := Load("../../BENCH_baseline.json"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stale.json")
	stale := `{"schema": ` + strconv.Itoa(SchemaVersion) + `, "workloads": [{"name": "w", "machine_seconds": 1, "p99_ms": 2}]}`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "p99_ms") {
		t.Fatalf("stale field must fail the load, got %v", err)
	}
}
