//go:build race

package conv_test

// raceEnabled: a -race build runs the functional simulator about ten times
// slower, so TestPackedMatchesPerCall runs one point functionally under it.
const raceEnabled = true
