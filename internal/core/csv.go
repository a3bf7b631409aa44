package core

import (
	"encoding/csv"
	"strconv"
	"strings"

	"repro/internal/sdc"
)

// CSV serializations of the experiment results, for regenerating the
// paper's figures with external plotting tools. Each method returns a
// complete CSV document with a header row.

// writeCSV renders rows through encoding/csv (proper quoting for free).
func writeCSV(header []string, rows [][]string) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write(header)
	_ = w.WriteAll(rows)
	w.Flush()
	return sb.String()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// CSV renders the Figure 3 dataset.
func (r *Fig3Result) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Network, row.DType.String()}
		for _, k := range sdc.Kinds {
			if row.Defined[k] {
				cells = append(cells, f(row.Prob[k]), f(row.CI[k]))
			} else {
				cells = append(cells, "", "")
			}
		}
		rows = append(rows, cells)
	}
	return writeCSV([]string{
		"network", "dtype",
		"sdc1", "sdc1_ci", "sdc5", "sdc5_ci", "sdc10", "sdc10_ci", "sdc20", "sdc20_ci",
	}, rows)
}

// CSV renders the per-bit series of Figure 4.
func (r *Fig4Result) CSV() string {
	rows := make([][]string, 0, len(r.Prob))
	for bit := r.DType.Width() - 1; bit >= 0; bit-- {
		rows = append(rows, []string{
			r.Network, r.DType.String(), strconv.Itoa(bit),
			r.DType.Classify(bit).String(), f(r.Prob[bit]), f(r.CI[bit]),
		})
	}
	return writeCSV([]string{"network", "dtype", "bit", "class", "sdc1", "ci"}, rows)
}

// CSV renders the Figure 5 value scatter (one row per sampled fault).
func (r *Fig5Result) CSV() string {
	var rows [][]string
	for _, v := range r.SDC {
		rows = append(rows, []string{r.Network, r.DType.String(), f(v.Golden), f(v.Faulty), "sdc"})
	}
	for _, v := range r.Benign {
		rows = append(rows, []string{r.Network, r.DType.String(), f(v.Golden), f(v.Faulty), "benign"})
	}
	return writeCSV([]string{"network", "dtype", "golden", "faulty", "outcome"}, rows)
}

// CSV renders the Figure 6 per-layer series.
func (r *Fig6Result) CSV() string {
	rows := make([][]string, 0, len(r.Prob))
	for b := range r.Prob {
		rows = append(rows, []string{
			r.Network, r.DType.String(), strconv.Itoa(b + 1), f(r.Prob[b]), f(r.CI[b]),
		})
	}
	return writeCSV([]string{"network", "dtype", "layer", "sdc1", "ci"}, rows)
}

// CSV renders the Figure 7 distance series.
func (r *Fig7Result) CSV() string {
	rows := make([][]string, 0, len(r.Dist))
	for b, d := range r.Dist {
		rows = append(rows, []string{r.Network, r.DType.String(), strconv.Itoa(b + 1), f(d)})
	}
	return writeCSV([]string{"network", "dtype", "layer", "mean_euclidean_distance"}, rows)
}

// CSV renders the datapath FIT table.
func (cells Table6Cells) CSV() string {
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{c.Network, c.DType.String(), f(c.SDCProb), f(c.FIT)})
	}
	return writeCSV([]string{"network", "dtype", "sdc1", "fit"}, rows)
}

// CSV renders the buffer table.
func (cells Table8Cells) CSV() string {
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{c.Network, c.Buffer.String(), f(c.SDCProb), f(c.CI), f(c.FIT)})
	}
	return writeCSV([]string{"network", "buffer", "sdc1", "ci", "fit"}, rows)
}

// CSV renders both Figure 9 curve families: the perfect-protection curve
// (kind=protection) and the overhead-vs-target series (kind=overhead,
// one row per design and target; unreachable targets have an empty cell).
func (r *Fig9Result) CSV() string {
	var rows [][]string
	for i := range r.CurveX {
		rows = append(rows, []string{
			r.Network, r.DType.String(), "protection", "",
			f(r.CurveX[i]), f(r.CurveY[i]),
		})
	}
	for _, name := range []string{"RCC", "SEUT", "TMR", "Multi"} {
		for i, target := range r.Targets {
			v := ""
			if y := r.Overhead[name][i]; y == y { // not NaN
				v = f(y)
			}
			rows = append(rows, []string{
				r.Network, r.DType.String(), "overhead", name,
				f(target), v,
			})
		}
	}
	return writeCSV([]string{"network", "dtype", "kind", "design", "x", "y"}, rows)
}

// CSV renders the detector scores.
func (rows Fig8Rows) CSV() string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Network, f(r.Precision), f(r.Recall)})
	}
	return writeCSV([]string{"network", "precision", "recall"}, out)
}
