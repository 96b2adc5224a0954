//go:build race

package experiments

// raceEnabled: under -race the quick suite of TestExperimentsGolden is an
// order of magnitude slower.
const raceEnabled = true
