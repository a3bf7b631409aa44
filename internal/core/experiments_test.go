package core

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/systolic"
)

// TestExperimentsTable runs every row of Experiments at a tiny scale on
// ConvNet cells: ids are unique, Format is non-empty, a CSV form parses to
// rectangular records (as many as the case says), and a second call returns
// the same bytes. A new row needs a case here.
func TestExperimentsTable(t *testing.T) {
	convNet := func(dts ...numeric.Type) []Cell { return cross([]string{"ConvNet"}, dts...) }
	cases := map[string]struct {
		cells []Cell
		n     int
		// csvRecords counts the CSV form's records, header included; 0 for
		// the rows that have none.
		csvRecords int
	}{
		"fig3":     {convNet(numeric.Fx32RB10), 40, 2},
		"fig4":     {convNet(numeric.Fx16RB10), 32, 1 + 16},
		"fig5":     {convNet(numeric.Fx32RB10), 40, 1 + 40},
		"table4":   {convNet(numeric.Double), 0, 0},
		"fig6":     {convNet(numeric.Fx16RB10, numeric.Float16), 40, 1 + 2*5},
		"fig7":     {convNet(numeric.Double), 8, 1 + 5},
		"table5":   {convNet(numeric.Fx16RB10), 40, 0},
		"table6":   {convNet(numeric.Fx16RB10), 40, 2},
		"table7":   {},
		"table8":   {convNet(numeric.Fx16RB10), 20, 1 + 4},
		"fig8":     {convNet(numeric.Float), 20, 2},
		"table9":   {},
		"fig9":     {convNet(numeric.Fx16RB10), 64, 1 + 17 + 4*len(Fig9Targets)},
		"sedfit":   {convNet(numeric.Float), 20, 0},
		"budget":   {convNet(numeric.Fx16RB10), 20, 0},
		"ablation": {convNet(numeric.Float16), 20, 0},
		"formats":  {convNet(numeric.Double), 0, 0},
		"reuse":    {},
		"schedule": {},
		"table8rs": {convNet(numeric.Fx16RB10), 20, 1 + 4},
		"mixed":    {convNet(numeric.Float16), 20, 0},
		"pearray":  {convNet(numeric.Fx32RB26), 8, 0},
		"latches":  {convNet(numeric.Fx32RB10), 40, 0},
		"sampling": {convNet(numeric.Fx16RB10, numeric.Float16), 40, 1 + 2},
		"xarch":    {convNet(numeric.Fx16RB10), 24, 1 + 4},
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("experiment id %q appears twice", e.ID)
		}
		seen[e.ID] = true
		c, ok := cases[e.ID]
		if !ok {
			t.Errorf("%s: no case in TestExperimentsTable", e.ID)
			continue
		}
		if (len(e.Cells) == 0) != (len(c.cells) == 0) {
			t.Errorf("%s: the row has %d cells, its case %d", e.ID, len(e.Cells), len(c.cells))
		}
		t.Run(e.ID, func(t *testing.T) {
			cfg := Config{Injections: c.n, Inputs: 1, Seed: 51}
			res := must(e.Run(cfg, c.cells))
			text := res.Format()
			if text == "" {
				t.Error("empty Format")
			}
			again := must(e.Run(cfg, c.cells))
			if again.Format() != text {
				t.Errorf("second call formats differently:\n%s\nvs\n%s", again.Format(), text)
			}
			plot, ok := res.(interface{ CSV() string })
			if !ok {
				if c.csvRecords != 0 {
					t.Errorf("no CSV form, want %d records", c.csvRecords)
				}
				return
			}
			doc := plot.CSV()
			// The reader rejects records of unequal length.
			records, err := csv.NewReader(strings.NewReader(doc)).ReadAll()
			if err != nil {
				t.Fatalf("invalid CSV: %v\n%s", err, doc)
			}
			if len(records) != c.csvRecords || records[0][0] != "network" || records[1][0] != "ConvNet" {
				t.Errorf("CSV has %d records, want %d under a header starting with \"network\":\n%s", len(records), c.csvRecords, doc)
			}
			if again.(interface{ CSV() string }).CSV() != doc {
				t.Error("second call's CSV differs")
			}
		})
	}
}

// TestSelect covers paperrepro's outside input: what -exp, -nets and
// -dtypes choose, and that every bad value is an error naming the valid
// ones.
func TestSelect(t *testing.T) {
	cells := func(es []Experiment) string {
		var out []string
		for _, e := range es {
			names := make([]string, len(e.Cells))
			for i, c := range e.Cells {
				names[i] = c.String()
			}
			out = append(out, e.ID+":"+strings.Join(names, ","))
		}
		return strings.Join(out, " ")
	}
	for _, c := range []struct{ exp, nets, dtypes, want string }{
		{"table7, fig4", "", "", "fig4:NiN/FLOAT,NiN/FLOAT16,CaffeNet/32b_rb26,CaffeNet/32b_rb10 table7:"},
		{"fig4", "NiN", "", "fig4:NiN/FLOAT,NiN/FLOAT16"},
		{"fig4,fig5", "", "FLOAT16", "fig4:NiN/FLOAT16 fig5:AlexNet/FLOAT16"},
		{"fig4,table9", "ConvNet,AlexNet", "DOUBLE", "fig4:ConvNet/DOUBLE,AlexNet/DOUBLE table9:"},
	} {
		got, err := Select(c.exp, c.nets, c.dtypes)
		if err != nil || cells(got) != c.want {
			t.Errorf("Select(%q, %q, %q) = %s, %v; want %s", c.exp, c.nets, c.dtypes, cells(got), err, c.want)
		}
	}
	if all, err := Select("all", "", ""); err != nil || len(all) != len(Experiments) {
		t.Errorf("Select(all) = %d rows, %v; want %d", len(all), err, len(Experiments))
	}
	for _, c := range []struct{ exp, nets, dtypes, want string }{
		{"fig3,fig33", "", "", "valid: all, fig3, fig4,"},
		{"", "", "", "valid: all, fig3, fig4,"},
		{"fig3", "LeNet", "", "valid: ConvNet, AlexNet, CaffeNet, NiN"},
		{"fig3", "", "FLOAT8", "valid: DOUBLE FLOAT FLOAT16 32b_rb26 32b_rb10 16b_rb10"},
		{"fig3,fig4", "AlexNet", "", "fig4 has none of its cells"},
		{"fig6", "", "FLOAT", "valid: ConvNet/FLOAT16 AlexNet/FLOAT16"},
	} {
		if got, err := Select(c.exp, c.nets, c.dtypes); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Select(%q, %q, %q) = %d rows, error %v; want an error containing %q", c.exp, c.nets, c.dtypes, len(got), err, c.want)
		}
	}
}

// TestSamplingStratifiedNoWider: at an equal budget the stratified SDC-1
// interval is no wider than the uniform one (ConvNet/16b_rb10, where the
// masked low bits dominate the population).
func TestSamplingStratifiedNoWider(t *testing.T) {
	rows := must(Sampling(Config{Injections: 600, Inputs: 1, Seed: 35}, cross([]string{"ConvNet"}, numeric.Fx16RB10)))
	r := rows[0]
	if r.UniformCI <= 0 || r.StratifiedCI <= 0 {
		t.Fatalf("empty interval: uniform ±%v, stratified ±%v", r.UniformCI, r.StratifiedCI)
	}
	if r.StratifiedCI > r.UniformCI {
		t.Errorf("stratified ±%.4f wider than uniform ±%.4f", r.StratifiedCI, r.UniformCI)
	}
	if got := rows.GeomeanCIRatio(); got != r.CIRatio() {
		t.Errorf("geomean of one ratio = %v, want %v", got, r.CIRatio())
	}
}

// TestXArchComparesEqualAreasOnly: on the equal-area array every cell gets
// the row-stationary leg plus the three systolic ones, each at the
// row-stationary latch-bit budget; on an array of another size the systolic
// legs are skipped and said to be, not compared.
func TestXArchComparesEqualAreasOnly(t *testing.T) {
	cfg := Config{Injections: 48, Inputs: 1, Seed: 37}
	on := cross([]string{"ConvNet"}, numeric.Fx16RB10, numeric.Float)
	for _, r := range must(XArch(cfg, on)) {
		if r.ArrayBits != r.LatchBits || r.LatchBits != systolic.LatchBits(xarchArray, r.DType) {
			t.Errorf("%s: array exposes %d latch bits, the row-stationary budget is %d", r.DType, r.ArrayBits, r.LatchBits)
		}
		if len(r.Legs) != 4 || r.Legs[0].Arch != "row" || r.Legs[1].Arch != "weight" {
			t.Errorf("%s: legs %+v, want row, weight, output, input", r.DType, r.Legs)
		}
	}
	small := must(xarch(cfg, on, systolic.Params{Rows: 8, Cols: 8}))
	for _, r := range small {
		if r.ArrayBits == r.LatchBits || len(r.Legs) != 1 {
			t.Errorf("%s: %d legs at %d array bits vs the %d-bit budget, want the row-stationary leg alone", r.DType, len(r.Legs), r.ArrayBits, r.LatchBits)
		}
	}
	if out := small.Format(); !strings.Contains(out, "systolic legs skipped") || small.GeomeanFITRatio("weight") != 0 {
		t.Errorf("skipped legs not reported:\n%s", out)
	}
}
