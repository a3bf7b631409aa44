// Package core is the reproduction's experiment suite: the Experiments
// table (experiments.go) has one row per table and figure of the paper's
// evaluation and per extension (see DESIGN.md §4 for the index). Each
// experiment returns a typed result with a Format method that prints the
// same rows/series the paper reports; cmd/paperrepro and the repository
// benchmarks are loops over that table.
//
// The experiments a campaign.Spec can describe — Figs. 3–6, Tables 5, 6 and
// 8, the budget check, the per-latch breakdown and the sampling comparison —
// are specs run through one memoizing runner (runner.go), the path
// cmd/faultserve executes. The rest carry what a Spec cannot (a distance
// trace, a Detector hook, a modified network, a Residency override, an array
// size, their own simulators) and drive the surface packages directly.
package core

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// newRand returns a seeded PRNG for serial experiment loops.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildNet constructs a network honoring cfg.WeightsDir.
func buildNet(cfg Config, name string) (*network.Network, error) {
	if cfg.WeightsDir == "" {
		return models.Build(name), nil
	}
	return models.LoadPretrained(name, cfg.WeightsDir)
}

// Config sets the scale of a campaign.
type Config struct {
	// Injections per configuration (the paper uses 3000 per component).
	Injections int
	// Inputs is the number of distinct images cycled per network.
	Inputs int
	// Seed drives every PRNG.
	Seed int64
	// WeightsDir, when set, loads pre-trained weights (cmd/pretrain
	// output) into every network the experiments build; a network whose
	// file is missing is an error.
	WeightsDir string
}

// Quick is the CI-scale configuration results_quick.txt is printed at.
var Quick = Config{Injections: 300, Inputs: 2, Seed: 1}

// PaperScale matches the paper's 3000 injections per configuration.
var PaperScale = Config{Injections: 3000, Inputs: 8, Seed: 1}

// inputsFor generates the deterministic campaign input set of a network.
func inputsFor(name string, n int) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = models.InputFor(name, i)
	}
	return ins
}

// trainingInputs generates detector-training images from an index range
// disjoint from the campaign inputs.
func trainingInputs(name string, n int) []*tensor.Tensor {
	const trainingOffset = 10_000
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = models.InputFor(name, trainingOffset+i)
	}
	return ins
}

// AllDataTypes lists the Table 3 formats in paper order.
var AllDataTypes = []numeric.Type{
	numeric.Double, numeric.Float, numeric.Float16,
	numeric.Fx32RB26, numeric.Fx32RB10, numeric.Fx16RB10,
}

// table is a small text-table builder shared by the Format methods.
type table struct {
	sb     strings.Builder
	widths []int
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...interface{}) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

func (t *table) String() string {
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(t.widths) {
				t.widths = append(t.widths, 0)
			}
			if len(c) > t.widths[i] {
				t.widths[i] = len(c)
			}
		}
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				t.sb.WriteString("  ")
			}
			t.sb.WriteString(c)
			t.sb.WriteString(strings.Repeat(" ", t.widths[i]-len(c)))
		}
		t.sb.WriteString("\n")
	}
	return t.sb.String()
}

// pct formats a probability as a percentage.
func pct(p float64) string { return fmt.Sprintf("%.2f%%", p*100) }
