package autotune

import (
	"context"
	"runtime"
	"testing"

	"swatop/internal/gemm"
)

// TestSessionMachinesPerWorker: a black-box walk on four workers measures
// its candidates on the session's own machines, at most one per worker and
// every one put back, and ranks bit for bit as the sequential walk on its
// single machine does. Under make race this checks the machines' hand-off
// between workers.
func TestSessionMachinesPerWorker(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	walk := func(workers int) (*session, ranked) {
		s, err := begin(context.Background(), op, Options{Workers: workers}, "blackbox", "blackbox")
		if err != nil {
			t.Fatal(err)
		}
		top, err := s.walk(1, true, s.measure)
		if err != nil || len(top) != 1 {
			t.Fatalf("walk on %d workers: %v, %d ranked", workers, err, len(top))
		}
		return s, top[0]
	}
	seq, seqBest := walk(1)
	par, parBest := walk(4)
	if n := len(seq.machines); n != 1 {
		t.Fatalf("sequential walk kept %d machines, want 1", n)
	}
	if n := len(par.machines); n < 1 || n > 4 {
		t.Fatalf("walk on 4 workers kept %d machines, want 1 to 4", n)
	}
	if seqBest.idx != parBest.idx || seqBest.score != parBest.score || seq.machine != par.machine {
		t.Fatalf("4 workers picked %d (%g s, ledger %g), sequential %d (%g s, ledger %g)",
			parBest.idx, parBest.score, par.machine, seqBest.idx, seqBest.score, seq.machine)
	}
}

// heapAfterGC is the live heap once two collections have run: the second
// frees what sync.Pools kept through the first.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSessionLeavesNoHeap: a session's machines and their SPM storage (up to
// 4 MiB each) live as long as the session. Once ModelBasedCtx has returned,
// the heap holds less than 1 MiB more than before it started: no
// process-wide cache or pool keeps a machine.
func TestSessionLeavesNoHeap(t *testing.T) {
	op, err := gemm.NewOp(gemm.Params{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	mdl := model(t)
	before := heapAfterGC()
	if _, err := ModelBasedCtx(context.Background(), op, mdl, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if grew := heapAfterGC() - before; grew >= 1<<20 {
		t.Fatalf("the heap grew by %d B across a tuning session, want under 1 MiB", grew)
	}
	runtime.KeepAlive(op)
}
