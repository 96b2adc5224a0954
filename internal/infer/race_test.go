//go:build race

package infer

// raceEnabled: a -race build allocates differently from a plain one, so the
// allocation budget of a warm run is not read under it.
const raceEnabled = true
