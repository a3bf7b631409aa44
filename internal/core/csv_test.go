package core

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/numeric"
)

// parseCSV asserts the document is well-formed and returns its records.
func parseCSV(t *testing.T, doc string) [][]string {
	t.Helper()
	records, err := csv.NewReader(strings.NewReader(doc)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, doc)
	}
	return records
}

func TestCSVExports(t *testing.T) {
	cfg := Config{Injections: 40, Inputs: 1, Seed: 51}

	f3 := must(Fig3(cfg, []string{"ConvNet"}, []numeric.Type{numeric.Fx32RB10}))
	recs := parseCSV(t, f3.CSV())
	if len(recs) != 2 || recs[0][0] != "network" || recs[1][1] != "32b_rb10" {
		t.Errorf("fig3 CSV records: %v", recs)
	}

	f4 := must(Fig4(Config{Injections: 32, Inputs: 1, Seed: 52}, "ConvNet", numeric.Fx16RB10))
	recs = parseCSV(t, f4.CSV())
	if len(recs) != 17 { // header + 16 bits
		t.Errorf("fig4 CSV rows = %d, want 17", len(recs))
	}

	f5 := must(Fig5(cfg, "ConvNet", numeric.Fx32RB10))
	recs = parseCSV(t, f5.CSV())
	if len(recs) != 1+len(f5.SDC)+len(f5.Benign) {
		t.Errorf("fig5 CSV rows = %d", len(recs))
	}

	f6 := must(Fig6(cfg, "ConvNet", numeric.Fx16RB10))
	recs = parseCSV(t, f6.CSV())
	if len(recs) != 6 { // header + 5 blocks
		t.Errorf("fig6 CSV rows = %d, want 6", len(recs))
	}

	f7 := must(Fig7(Config{Injections: 5, Inputs: 1, Seed: 53}, "ConvNet", numeric.Double))
	recs = parseCSV(t, f7.CSV())
	if len(recs) != 6 {
		t.Errorf("fig7 CSV rows = %d, want 6", len(recs))
	}

	t6 := must(Table6(cfg, []string{"ConvNet"}, []numeric.Type{numeric.Fx16RB10}))
	recs = parseCSV(t, Table6CSV(t6))
	if len(recs) != 2 {
		t.Errorf("table6 CSV rows = %d", len(recs))
	}

	t8 := must(Table8(Config{Injections: 20, Inputs: 1, Seed: 54}, []string{"ConvNet"}))
	recs = parseCSV(t, Table8CSV(t8))
	if len(recs) != 5 { // header + 4 buffers
		t.Errorf("table8 CSV rows = %d, want 5", len(recs))
	}

	f9 := must(Fig9(Config{Injections: 64, Inputs: 1, Seed: 55}, "ConvNet", numeric.Fx16RB10))
	recs = parseCSV(t, f9.CSV())
	// header + 17 protection points + 4 designs x 9 targets.
	if want := 1 + 17 + 4*len(Fig9Targets); len(recs) != want {
		t.Errorf("fig9 CSV rows = %d, want %d", len(recs), want)
	}

	f8 := []Fig8Row{{Network: "AlexNet", Precision: 0.98, Recall: 0.9}}
	recs = parseCSV(t, Fig8CSV(f8))
	if len(recs) != 2 || recs[1][0] != "AlexNet" {
		t.Errorf("fig8 CSV records: %v", recs)
	}
}
