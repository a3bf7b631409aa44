package core

import (
	"fmt"
	"math"
)

// Replication summarizes a statistic measured across independent campaign
// seeds — the reproduction's answer to "how stable is this number?",
// complementing the per-campaign binomial error bars.
type Replication struct {
	// Values holds the per-seed measurements.
	Values []float64
	// Mean and StdDev summarize them (sample standard deviation).
	Mean, StdDev float64
}

// Replicate runs measure once per seed (cfg.Seed + i) and summarizes the
// returned statistic.
func Replicate(cfg Config, seeds int, measure func(Config) float64) Replication {
	if seeds <= 0 {
		panic("core: Replicate needs at least one seed")
	}
	r := Replication{Values: make([]float64, seeds)}
	for i := 0; i < seeds; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		r.Values[i] = measure(c)
		r.Mean += r.Values[i]
	}
	r.Mean /= float64(seeds)
	if seeds > 1 {
		var ss float64
		for _, v := range r.Values {
			d := v - r.Mean
			ss += float64(d * d)
		}
		r.StdDev = math.Sqrt(ss / float64(seeds-1))
	}
	return r
}

// String formats the replication as mean ± sd (n).
func (r Replication) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", r.Mean, r.StdDev, len(r.Values))
}
