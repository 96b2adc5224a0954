package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.23456)
	tb.AddRow("a-much-longer-name", 42)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns aligned: the header and separator have the same width.
	if len(lines[1]) > len(lines[2])+2 {
		t.Fatalf("separator misaligned:\n%s", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Fatal("float formatting wrong")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow("x", 1)
	csv := tb.CSV()
	if csv != "a,b\nx,1\n" {
		t.Fatalf("csv = %q", csv)
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow("x", 1.5)
	out, err := tb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("emitted JSON does not round-trip: %v\n%s", err, out)
	}
	if doc.Title != "demo" || len(doc.Headers) != 2 || len(doc.Rows) != 1 {
		t.Fatalf("round-trip mismatch: %+v", doc)
	}
	if doc.Rows[0][1] != "1.5" {
		t.Fatalf("cell = %q, want the same rendering String uses", doc.Rows[0][1])
	}

	// An empty table must still emit a JSON array for rows, not null.
	empty, err := NewTable("e", "h").JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty, `"rows": []`) {
		t.Fatalf("empty rows should serialize as []:\n%s", empty)
	}
}

func TestFormatters(t *testing.T) {
	if Ms(0.00123) != "1.23ms" {
		t.Fatalf("Ms = %q", Ms(0.00123))
	}
	if Duration(30) != "30s" {
		t.Fatalf("Duration(30) = %q", Duration(30))
	}
	if Duration(90) != "1m 30s" {
		t.Fatalf("Duration(90) = %q", Duration(90))
	}
	if Duration(7200+120) != "2h 2m" {
		t.Fatalf("Duration(7320) = %q", Duration(7320))
	}
}
