//go:build race

package core_test

// raceEnabled: a -race build allocates differently from a plain one (four
// more allocations compiling the GEMM point of TestCompileAllocBudget).
const raceEnabled = true
