package cache

import (
	"testing"

	"swatop/internal/dsl"
)

func gemmEntry(sig string, seconds float64) Entry {
	return FromStrategy(sig, dsl.Strategy{
		Factors: map[string]int{"m": 64, "n": 64, "k": 128},
		Order:   []string{"m", "n", "k"},
	}, seconds, 100)
}

func convEntry(sig string) Entry {
	return FromStrategy(sig, dsl.Strategy{
		Factors: map[string]int{"no": 32, "b": 1},
	}, 0.002, 50)
}

func TestNearestOrdersByLogDistance(t *testing.T) {
	l := NewLibrary()
	l.Put(gemmEntry("gemm_1024x512x512", 0.001)) // distance 1 from query
	l.Put(gemmEntry("gemm_64x64x64", 0.001))     // distance 9 from query
	l.Put(gemmEntry("gemm_512x512x256", 0.001))  // distance 1 from query, later sig
	got := l.Nearest("gemm_512x512x512", 2)
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	// Both at distance 1; tie broken by signature string.
	if got[0].Signature != "gemm_1024x512x512" || got[1].Signature != "gemm_512x512x256" {
		t.Fatalf("order = %s, %s", got[0].Signature, got[1].Signature)
	}
}

func TestNearestExcludesExactSignature(t *testing.T) {
	l := NewLibrary()
	l.Put(gemmEntry("gemm_512x512x512", 0.001))
	l.Put(gemmEntry("gemm_256x256x256", 0.001))
	got := l.Nearest("gemm_512x512x512", 5)
	if len(got) != 1 || got[0].Signature != "gemm_256x256x256" {
		t.Fatalf("exact signature leaked into neighbors: %v", got)
	}
}

// TestNearestSkipsDegraded is the regression test for the transfer-seeding
// path: a Degraded (baseline-fallback) entry is served on exact Get hits
// but must never steer a neighboring shape's search.
func TestNearestSkipsDegraded(t *testing.T) {
	l := NewLibrary()
	e := gemmEntry("gemm_256x256x256", 0.001)
	e.Degraded = true
	l.Put(e)
	l.Put(gemmEntry("gemm_128x128x128", 0.001))
	got := l.Nearest("gemm_512x512x512", 5)
	if len(got) != 1 || got[0].Signature != "gemm_128x128x128" {
		t.Fatalf("degraded entry offered as seed: %v", got)
	}
	// Exact Get still serves the degraded entry.
	if _, ok := l.Get("gemm_256x256x256"); !ok {
		t.Fatal("degraded entry vanished from exact lookup")
	}
}

// TestNearestSkipsInvalid: entries that fail Validate (e.g. hand-edited
// after Put, or injected through tests) never qualify as seeds.
func TestNearestSkipsInvalid(t *testing.T) {
	l := NewLibrary()
	bad := gemmEntry("gemm_256x256x256", 0.001)
	bad.Factors = nil // fails Validate
	l.mu.Lock()
	l.entries[bad.Signature] = bad
	l.mu.Unlock()
	if got := l.Nearest("gemm_512x512x512", 5); len(got) != 0 {
		t.Fatalf("invalid entry offered as seed: %v", got)
	}
}

func TestNearestSameFamilyOnly(t *testing.T) {
	l := NewLibrary()
	l.Put(convEntry("implicit_conv_b1_ni64_no64_r56x56_k3x3"))
	l.Put(convEntry("winograd_conv_b1_ni64_no64_r56x56_k3x3"))
	l.Put(gemmEntry("gemm_256x256x256", 0.001))
	got := l.Nearest("implicit_conv_b1_ni64_no128_r56x56_k3x3", 5)
	if len(got) != 1 || got[0].Signature != "implicit_conv_b1_ni64_no64_r56x56_k3x3" {
		t.Fatalf("cross-family neighbors leaked: %v", got)
	}
}

func TestNearestUnparseableSignatures(t *testing.T) {
	l := NewLibrary()
	l.Put(gemmEntry("gemm_256x256x256", 0.001))
	l.Put(FromStrategy("mystery_op_v2", dsl.Strategy{
		Factors: map[string]int{"x": 4},
	}, 0.001, 10))
	if got := l.Nearest("mystery_op_v2", 5); got != nil {
		t.Fatalf("unparseable query returned %v", got)
	}
	if got := l.Nearest("gemm_bogus", 5); got != nil {
		t.Fatalf("malformed gemm query returned %v", got)
	}
	// The unparseable entry is invisible even to a valid query.
	if got := l.Nearest("gemm_512x512x512", 5); len(got) != 1 {
		t.Fatalf("unparseable entry leaked: %v", got)
	}
}

func TestNearestZeroK(t *testing.T) {
	l := NewLibrary()
	l.Put(gemmEntry("gemm_256x256x256", 0.001))
	if got := l.Nearest("gemm_512x512x512", 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestParseSignature(t *testing.T) {
	cases := []struct {
		sig    string
		family string
		ok     bool
	}{
		{"gemm_512x512x512", "gemm", true},
		{"implicit_conv_b1_ni3_no64_r224x224_k3x3", "implicit_conv", true},
		{"explicit_conv_b4_ni64_no64_r56x56_k1x1", "explicit_conv", true},
		{"winograd_conv_b1_ni64_no64_r56x56_k3x3", "winograd_conv", true},
		{"winograd_fused_conv_b1_ni64_no64_r56x56_k3x3", "winograd_fused_conv", true},
		{"winograd_fused_conv_b1_ni64_no64_r56x56_k3x3_relu", "winograd_fused_conv", true},
		{"gemm_4096x8x25088_relu", "gemm", true},
		{"implicit_conv_b1_ni64_no64_r56x56_k3x3_pad1", "implicit_conv", true},
		{"winograd_fused_conv_b1_ni64_no64_r56x56_k3x3_relu_pad1", "winograd_fused_conv", true},
		{"gemm_512x512", "", false},
		{"attention_b8_h12", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		got, ok := parseSignature(c.sig)
		if ok != c.ok || (ok && got.family != c.family) {
			t.Errorf("parseSignature(%q) = %+v, %v; want family %q ok %v",
				c.sig, got, ok, c.family, c.ok)
		}
	}
}
