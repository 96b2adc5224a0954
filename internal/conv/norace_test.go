//go:build !race

package conv_test

const raceEnabled = false
