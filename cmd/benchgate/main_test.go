package main

import (
	"strings"
	"testing"
)

// doc builds a one-section BENCH_engine.json document keyed by q.
func doc(rows ...map[string]any) map[string][]map[string]any {
	return map[string][]map[string]any{"engine_rounds": rows}
}

func row(q, ns, allocs float64) map[string]any {
	return map[string]any{"q": q, "ns_per_op": ns, "allocs_per_op": allocs}
}

func TestGate(t *testing.T) {
	base := doc(row(1, 1000, 500), row(8, 2000, 800))
	cases := []struct {
		name     string
		fresh    map[string][]map[string]any
		wantBad  int
		wantLine string
	}{
		{"pass within tolerance", doc(row(1, 1100, 550), row(8, 1500, 800)), 0, ""},
		{"regression beyond tolerance", doc(row(1, 1000, 600), row(8, 2000, 800)), 1, "REGRESSION engine_rounds/q=1 allocs_per_op"},
		{"missing baseline row", doc(row(1, 1000, 500)), 1, "MISSING engine_rounds/q=8"},
	}
	for _, c := range cases {
		_, failures := gate(base, c.fresh, 0.15, 0.15)
		report := strings.Join(failures, "\n")
		if len(failures) != c.wantBad {
			t.Errorf("%s: %d failing rows, want %d (%s)", c.name, len(failures), c.wantBad, report)
		}
		if !strings.Contains(report, c.wantLine) {
			t.Errorf("%s: report %q lacks %q", c.name, report, c.wantLine)
		}
	}
}
