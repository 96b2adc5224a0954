//go:build race

package exec

// raceEnabled: under -race, sync.Pool drops items at random, so the
// walker's pooled arenas make allocation counts vary from call to call.
const raceEnabled = true
