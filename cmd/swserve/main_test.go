package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckTraceFlags: swserve refuses the trace flags the store would
// rewrite silently, naming the range it wants, and accepts the rest.
func TestCheckTraceFlags(t *testing.T) {
	cases := []struct {
		sample, slowMs float64
		want           string // "" when the flags are accepted
	}{
		{0.1, 100, ""},
		{1, 0.5, ""},
		{1e-6, 1e6, ""},
		{0, 100, "-trace-sample 0: want a fraction in (0, 1]"},
		{-0.5, 100, "(0, 1]"},
		{1.5, 100, "(0, 1]"},
		{math.NaN(), 100, "(0, 1]"},
		{0.1, 0, "-trace-slow 0: want a latency in ms above 0"},
		{0.1, -5, "above 0"},
		{0.1, math.NaN(), "above 0"},
	}
	for _, c := range cases {
		err := checkTraceFlags(c.sample, c.slowMs)
		if c.want == "" && err != nil {
			t.Errorf("sample %g, slow %g: %v, want accepted", c.sample, c.slowMs, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("sample %g, slow %g: err = %v, want %q", c.sample, c.slowMs, err, c.want)
		}
	}
}
