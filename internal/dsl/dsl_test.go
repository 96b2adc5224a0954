package dsl

import (
	"strings"
	"testing"

	"swatop/internal/ir"
)

func validSeed() *Seed {
	s := NewSeed("op")
	s.AddAxis("m", 8, RoleM)
	s.AddAxis("n", 8, RoleN)
	s.AddAxis("k", 8, RoleK)
	s.AddTensor("A", []int{8, 8}, OperandA, Dim("m"), Dim("k"))
	s.AddTensor("B", []int{8, 8}, OperandB, Dim("k"), Dim("n"))
	s.AddTensor("C", []int{8, 8}, OperandC, Dim("m"), Dim("n"))
	return s
}

func TestSeedValidateOK(t *testing.T) {
	if err := validSeed().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSeedValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Seed
	}{
		{"no name", func() *Seed {
			s := validSeed()
			s.Name = ""
			return s
		}},
		{"duplicate axis", func() *Seed {
			s := validSeed()
			s.AddAxis("m", 4, RoleSpatial)
			return s
		}},
		{"zero extent", func() *Seed {
			s := validSeed()
			s.AddAxis("z", 0, RoleSpatial)
			return s
		}},
		{"missing role", func() *Seed {
			s := NewSeed("op")
			s.AddAxis("m", 8, RoleM)
			s.AddAxis("n", 8, RoleN)
			return s
		}},
		{"unknown axis in access", func() *Seed {
			s := validSeed()
			s.AddTensor("D", []int{8}, OperandA, Dim("ghost"))
			return s
		}},
		{"duplicate operand", func() *Seed {
			s := validSeed()
			s.AddTensor("A2", []int{8, 8}, OperandA, Dim("m"), Dim("k"))
			return s
		}},
		{"access out of bounds", func() *Seed {
			s := NewSeed("op")
			s.AddAxis("m", 8, RoleM)
			s.AddAxis("n", 8, RoleN)
			s.AddAxis("k", 8, RoleK)
			s.AddTensor("A", []int{4, 8}, OperandA, Dim("m"), Dim("k")) // m reaches 7 ≥ 4
			s.AddTensor("B", []int{8, 8}, OperandB, Dim("k"), Dim("n"))
			s.AddTensor("C", []int{8, 8}, OperandC, Dim("m"), Dim("n"))
			return s
		}},
		{"access rank mismatch", func() *Seed {
			s := NewSeed("op")
			s.AddAxis("m", 8, RoleM)
			s.AddAxis("n", 8, RoleN)
			s.AddAxis("k", 8, RoleK)
			s.AddTensor("A", []int{8, 8}, OperandA, Dim("m"))
			s.AddTensor("B", []int{8, 8}, OperandB, Dim("k"), Dim("n"))
			s.AddTensor("C", []int{8, 8}, OperandC, Dim("m"), Dim("n"))
			return s
		}},
	}
	for _, c := range cases {
		if err := c.build().Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestSeedLookups(t *testing.T) {
	s := validSeed()
	if _, err := s.Axis("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Axis("zz"); err == nil {
		t.Fatal("ghost axis lookup should fail")
	}
	if _, err := s.Tensor("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tensor("Z"); err == nil {
		t.Fatal("ghost tensor lookup should fail")
	}
	op, err := s.Operand(OperandB)
	if err != nil || op.Name != "B" {
		t.Fatalf("Operand(B) = %v, %v", op, err)
	}
}

func TestMultiTermAccess(t *testing.T) {
	s := NewSeed("conv")
	s.AddAxis("ro", 4, RoleSpatial)
	s.AddAxis("kr", 3, RoleReduce)
	s.AddAxis("m", 4, RoleM)
	s.AddAxis("n", 4, RoleN)
	s.AddAxis("k", 4, RoleK)
	s.AddTensor("A", []int{4, 4}, OperandA, Dim("m"), Dim("k"))
	s.AddTensor("B", []int{4, 6, 4}, OperandB, Dim("k"), Dims(T("ro", 1), T("kr", 1)), Dim("n"))
	s.AddTensor("C", []int{4, 4, 4}, OperandC, Dim("m"), Dim("ro"), Dim("n"))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceBuilders(t *testing.T) {
	sp := NewSpace()
	sp.FactorVar("m", 16, 32).FactorVar("m", 64)
	if len(sp.Factors["m"]) != 3 {
		t.Fatalf("FactorVar should accumulate: %v", sp.Factors["m"])
	}
	sp.Reorder("m", "n").Reorder("n", "m")
	if len(sp.Orders) != 2 {
		t.Fatal("Reorder should accumulate")
	}
	sp.Layout("A", 0, 1).Layout("A", 1, 0)
	if len(sp.Layouts["A"]) != 2 {
		t.Fatal("Layout should accumulate")
	}
	if len(sp.Vecs) != 2 || len(sp.DoubleBuffer) != 1 || len(sp.Padding) != 1 {
		t.Fatal("defaults wrong")
	}
}

func TestStrategyStringDeterministic(t *testing.T) {
	st := Strategy{
		Factors: map[string]int{"b": 2, "a": 1, "c": 3},
		Order:   []string{"a", "b"},
		Vec:     ir.VecN,
	}
	s1, s2 := st.String(), st.String()
	if s1 != s2 {
		t.Fatal("Strategy.String not deterministic")
	}
	if !strings.Contains(s1, "a=1,b=2,c=3") {
		t.Fatalf("factors not sorted: %s", s1)
	}
}

func TestPaddingModeString(t *testing.T) {
	if PadLightweight.String() != "lightweight" || PadTraditional.String() != "traditional" {
		t.Fatal("padding mode strings wrong")
	}
}

func TestRoleStrings(t *testing.T) {
	for r, want := range map[Role]string{
		RoleM: "M", RoleN: "N", RoleK: "K", RoleSpatial: "spatial", RoleReduce: "reduce",
	} {
		if r.String() != want {
			t.Errorf("Role(%d).String() = %s, want %s", r, r.String(), want)
		}
	}
	if OperandA.String() != "A" || OperandB.String() != "B" || OperandC.String() != "C" {
		t.Fatal("operand strings wrong")
	}
}
