package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spreadRow is one end-to-end metric of one workload over the repeated
// runs: the values, their order statistics, and the two spreads set beside
// the bound — the interquartile one the acceptance procedure uses, and the
// full range.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      float64   `json:"min"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Max      float64   `json:"max"`
	IQRFrac  float64   `json:"iqr_over_median"`
	RngFrac  float64   `json:"range_over_median"`
	Bound    float64   `json:"bound"`
}

// baseline is bench/baseline.json: the latest clean full-scale numbers.
type baseline struct {
	Envelope envelope    `json:"envelope"`
	Runs     int         `json:"runs"`
	Rows     []spreadRow `json:"rows"`
}

// spreadCheck runs every workload untraced on consecutive seeds, each run
// in a fresh process, and prints min / quartiles / median / max per
// end-to-end metric. With check it fails when a spread passes its bound
// (setup_s is exempt from the spread rule, as in the acceptance procedure)
// and records a clean full-scale result in bench/baseline.json.
func spreadCheck(cfg config, repeat int, check bool) error {
	var rows []spreadRow
	for _, w := range workloadNames {
		values := make(map[string][]float64)
		for k := 0; k < repeat; k++ {
			res, err := child(cfg, w, cfg.Seed+int64(k), false)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEndDefs {
			v := values[d.Name]
			if len(v) != repeat {
				return fmt.Errorf("%s: metric %s reported %d times in %d runs", w, d.Name, len(v), repeat)
			}
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			q1, q3 := quartiles(s)
			med := (s[(len(s)-1)/2] + s[len(s)/2]) / 2
			rows = append(rows, spreadRow{
				Workload: w, Metric: d.Name, Unit: d.Unit, Values: v,
				Min: s[0], Q1: q1, Median: med, Q3: q3, Max: s[len(s)-1],
				IQRFrac: (q3 - q1) / med, RngFrac: (s[len(s)-1] - s[0]) / med, Bound: d.Bound,
			})
		}
	}

	fmt.Fprintf(cfg.Log, "\n%-13s %-16s %12s %12s %12s %12s %12s  %7s %7s %6s\n",
		"workload", "metric", "min", "q1", "median", "q3", "max", "iqr/med", "rng/med", "bound")
	var over []string
	for _, r := range rows {
		flag := ""
		if r.Metric != "setup_s" && (r.IQRFrac > r.Bound || r.RngFrac > r.Bound) {
			flag = "  OVER"
			over = append(over, r.Workload+"/"+r.Metric)
		} else if r.Metric != "setup_s" && r.IQRFrac > r.Bound/3 {
			flag = "  iqr above a third of the bound"
		}
		fmt.Fprintf(cfg.Log, "%-13s %-16s %12.4f %12.4f %12.4f %12.4f %12.4f  %7.4f %7.4f %6.2f%s\n",
			r.Workload, r.Metric, r.Min, r.Q1, r.Median, r.Q3, r.Max, r.IQRFrac, r.RngFrac, r.Bound, flag)
	}
	if !check {
		return nil
	}
	if len(over) > 0 {
		return fmt.Errorf("spread past the bound on %v", over)
	}
	env := newEnvelope(cfg)
	switch {
	case cfg.Scale.Name != fullScale.Name:
		fmt.Fprintln(cfg.Log, "baseline not recorded: -quick numbers are never a baseline")
	case env.Dirty:
		fmt.Fprintln(cfg.Log, "baseline not recorded: the tree is dirty or not a git checkout, so no commit names these numbers")
	default:
		data, err := json.MarshalIndent(baseline{Envelope: env, Runs: repeat, Rows: rows}, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.BenchDir, "baseline.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Log, "baseline recorded in %s\n", path)
	}
	return nil
}
