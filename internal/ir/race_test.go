//go:build race

package ir

// raceEnabled: under -race, sync.Pool drops items at random, so the
// walker's pooled arenas make allocation counts vary from call to call.
const raceEnabled = true
