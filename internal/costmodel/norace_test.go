//go:build !race

package costmodel

const raceEnabled = false
