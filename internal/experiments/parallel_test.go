package experiments

import (
	"fmt"
	"sync"
	"testing"

	"swatop/internal/autotune"
)

// TestSweepWorkerCountInvariance checks the sweep-level guarantee: every
// reported row — schedules, simulated times, ledger — is identical whether
// layers are tuned sequentially or across a worker pool.
func TestSweepWorkerCountInvariance(t *testing.T) {
	r1, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	r1.Quick = true
	r1.Options.Workers = 1
	r2 := &Runner{Model: r1.Model, Quick: true, Options: autotune.Options{Workers: 8}}

	rows1, err := r1.GemmSweep()
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := r2.GemmSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows1) != len(rows2) {
		t.Fatalf("row counts differ: %d vs %d", len(rows1), len(rows2))
	}
	for i := range rows1 {
		if fmt.Sprintf("%v", rows1[i]) != fmt.Sprintf("%v", rows2[i]) {
			t.Fatalf("row %d differs:\nseq %v\npar %v", i, rows1[i], rows2[i])
		}
	}
}

// TestRunnerConcurrentSweeps hammers the cached sweeps from several
// goroutines; under -race this proves the cache and progress mutexes hold.
func TestRunnerConcurrentSweeps(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	r.Quick = true
	r.Options.Workers = 4
	var progressMax int
	r.Progress = func(done, total int) {
		if done > progressMax {
			progressMax = done
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.GemmSweep(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if progressMax == 0 {
		t.Fatal("progress callback never fired")
	}
	if _, err := r.Table2(); err != nil {
		t.Fatal(err)
	}
}
