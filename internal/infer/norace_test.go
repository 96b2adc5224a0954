//go:build !race

package infer

const raceEnabled = false
