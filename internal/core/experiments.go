package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/models"
	"repro/internal/numeric"
)

// Cell is one (network, format) pair an experiment runs on.
type Cell struct {
	Net   string
	DType numeric.Type
}

func (c Cell) String() string { return c.Net + "/" + c.DType.String() }

// Result is what an experiment prints. A result with a plotting form also
// has a CSV() string method returning a document with one header row.
type Result interface {
	Format() string
}

// Experiment is one row of the reproduction: a figure or table of the
// paper's evaluation, or an extension of it.
type Experiment struct {
	ID, Title string
	// Cells are the (network, format) pairs the paper shows it on; nil for
	// the analytic tables, which run no network.
	Cells []Cell
	Run   func(Config, []Cell) (Result, error)
}

// Experiments lists every experiment of the repo in paper order; it is the
// index DESIGN.md §4 documents and the only thing cmd/paperrepro, the
// repository benchmarks and TestExperimentsTable iterate.
var Experiments = []Experiment{
	{"fig3", "Figure 3: SDC probability x network x data type (datapath faults)",
		cross(models.Names, AllDataTypes...), all(Fig3)},
	// The paper shows NiN with the FP types and CaffeNet with the FxP types.
	{"fig4", "Figure 4: SDC probability per bit position",
		append(cross([]string{"NiN"}, numeric.Float, numeric.Float16),
			cross([]string{"CaffeNet"}, numeric.Fx32RB26, numeric.Fx32RB10)...), each(Fig4)},
	{"fig5", "Figure 5: ACT values before/after errors (SDC vs benign)",
		cross([]string{"AlexNet"}, numeric.Float16), each(Fig5)},
	{"table4", "Table 4: per-layer activation value ranges",
		cross(models.Names, numeric.Double), all(Table4)},
	{"fig6", "Figure 6: SDC probability per layer (FLOAT16)",
		cross(models.Names, numeric.Float16), each(Fig6)},
	{"fig7", "Figure 7: Euclidean distance per layer after layer-1 faults (DOUBLE)",
		cross(models.Names, numeric.Double), each(Fig7)},
	{"table5", "Table 5: bit-wise SDC across layers (AlexNet, FLOAT16)",
		cross([]string{"AlexNet"}, numeric.Float16), each(Table5)},
	{"table6", "Table 6: datapath FIT rate per network and data type",
		cross(models.Names, AllDataTypes...), all(Table6)},
	{"table7", "Table 7: Eyeriss microarchitecture 65nm -> 16nm",
		nil, analytic(Table7)},
	{"table8", "Table 8: Eyeriss buffer SDC probability and FIT (16b_rb10)",
		cross(models.Names, numeric.Fx16RB10), all(Table8)},
	{"fig8", "Figure 8: symptom-based detector precision and recall",
		cross(SEDNetworks, SEDDataTypes...), all(Fig8)},
	{"table9", "Table 9: hardened latch design space",
		nil, analytic(Table9)},
	{"fig9", "Figure 9: selective latch hardening exploration (AlexNet)",
		cross([]string{"AlexNet"}, numeric.Float16, numeric.Fx16RB10), each(Fig9)},
	{"sedfit", "SED FIT reduction on Eyeriss (Section 6.2)",
		cross([]string{"AlexNet"}, numeric.Float, numeric.Float16), all(SEDFIT)},
	{"budget", "ISO 26262 budget comparison (Section 5.2/6.1)",
		cross(models.Names, numeric.Fx16RB10), all(BudgetReport)},
	{"ablation", "Ablation: LRN masking effect (extension of Section 5.1.4)",
		cross([]string{"AlexNet", "CaffeNet"}, numeric.Float16), each(AblateLRN)},
	{"formats", "Just-enough format recommendation (Section 6.1 implication 1)",
		cross(models.Names, numeric.Double), all(FormatRecommendations)},
	{"reuse", "Analytic per-layer reuse factors (Table 1/8 background)",
		nil, analytic(ReuseReport)},
	{"schedule", "Row-stationary schedule and buffer traffic (dataflow model)",
		nil, analytic(ScheduleReport)},
	{"table8rs", "Table 8 with cycle-accurate residency weights (ablation)",
		cross(models.Names, numeric.Fx16RB10), all(Table8Residency)},
	// The cells' format is the storage format; compute stays FLOAT.
	{"mixed", "Reduced-precision storage protocol (Section 6.1 future work)",
		cross([]string{"AlexNet"}, numeric.Float, numeric.Float16, numeric.Fx16RB10), all(MixedPrecision)},
	{"pearray", "Cycle-level PE-array vs abstract fault-model cross-check",
		cross(models.Names, numeric.Fx32RB26), each(ValidatePEArray)},
	{"latches", "SDC probability per ALU latch class (datapath breakdown)",
		cross([]string{"AlexNet"}, numeric.Float16, numeric.Fx32RB10), all(LatchBreakdown)},
	{"sampling", "Stratified vs uniform site sampling at equal budget (SDC-1 interval half-width)",
		cross([]string{"ConvNet"}, numeric.Types...), all(Sampling)},
	{"xarch", "Row-stationary datapath vs systolic dataflows at equal latch-bit budget",
		cross([]string{"ConvNet"}, numeric.Types...), all(XArch)},
}

// cross returns the cells nets × dts, network-major.
func cross(nets []string, dts ...numeric.Type) []Cell {
	cells := make([]Cell, 0, len(nets)*len(dts))
	for _, n := range nets {
		for _, dt := range dts {
			cells = append(cells, Cell{n, dt})
		}
	}
	return cells
}

// all adapts an experiment that renders all its cells as one result.
func all[R Result](run func(Config, []Cell) (R, error)) func(Config, []Cell) (Result, error) {
	return func(cfg Config, cells []Cell) (Result, error) { return run(cfg, cells) }
}

// each adapts a one-cell experiment: it runs on every cell in turn and the
// results print one after the other, their CSV documents (when they have
// any) merged under one header.
func each[R Result](run func(Config, string, numeric.Type) (R, error)) func(Config, []Cell) (Result, error) {
	return func(cfg Config, cells []Cell) (Result, error) {
		var out plotted
		for _, c := range cells {
			r, err := run(cfg, c.Net, c.DType)
			if err != nil {
				return nil, err
			}
			out.Text += Text(r.Format())
			if p, ok := Result(r).(interface{ CSV() string }); ok {
				doc := p.CSV()
				if out.csv != "" {
					doc = doc[strings.IndexByte(doc, '\n')+1:]
				}
				out.csv += doc
			}
		}
		if out.csv == "" {
			return out.Text, nil
		}
		return out, nil
	}
}

// analytic adapts a table computed from published parameters alone.
func analytic[R Result](table func() R) func(Config, []Cell) (Result, error) {
	return func(Config, []Cell) (Result, error) { return table(), nil }
}

// Text is a result already rendered.
type Text string

// Format returns the text.
func (t Text) Format() string { return string(t) }

// plotted is a rendered result with a CSV form.
type plotted struct {
	Text
	csv string
}

func (p plotted) CSV() string { return p.csv }

// Select resolves a choice of experiments and cells — cmd/paperrepro's
// -exp, -nets and -dtypes, comma-separated — into rows of Experiments, in
// table order. exp is "all" or experiment ids. nets or dtypes alone keep
// the chosen rows' cells on those networks or formats; together they
// replace the cells by their cross product. Rows without cells are
// unaffected. An unknown id, network or format, and a choice that leaves a
// row without any of its cells, is an error naming the valid values.
func Select(exp, nets, dtypes string) ([]Experiment, error) {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	want := map[string]bool{}
	for _, id := range splitList(exp) {
		if id != "all" && !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid: all, %s", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	netList := splitList(nets)
	for _, n := range netList {
		if !slices.Contains(models.Names, n) {
			return nil, fmt.Errorf("unknown network %q; valid: %s", n, strings.Join(models.Names, ", "))
		}
	}
	var dtList []numeric.Type
	for _, s := range splitList(dtypes) {
		dt, err := numeric.ParseType(s)
		if err != nil {
			return nil, fmt.Errorf("unknown format %q; valid: %s", s, strings.Trim(fmt.Sprint(numeric.Types), "[]"))
		}
		dtList = append(dtList, dt)
	}

	var chosen []Experiment
	for _, e := range Experiments {
		if !want["all"] && !want[e.ID] {
			continue
		}
		switch paper := e.Cells; {
		case len(paper) == 0 || len(netList)+len(dtList) == 0:
		case len(netList) > 0 && len(dtList) > 0:
			e.Cells = cross(netList, dtList...)
		default:
			e.Cells = slices.DeleteFunc(slices.Clone(paper), func(c Cell) bool {
				return len(netList) > 0 && !slices.Contains(netList, c.Net) || len(dtList) > 0 && !slices.Contains(dtList, c.DType)
			})
			if len(e.Cells) == 0 {
				return nil, fmt.Errorf("%s has none of its cells on -nets %q -dtypes %q; valid: %s (or give both flags to replace them)",
					e.ID, nets, dtypes, strings.Trim(fmt.Sprint(paper), "[]"))
			}
		}
		chosen = append(chosen, e)
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("no experiment chosen; valid: all, %s", strings.Join(ids, ", "))
	}
	return chosen, nil
}

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}
