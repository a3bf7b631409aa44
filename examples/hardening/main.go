// Hardening walks the Selective Latch Hardening flow of §6.3: measure the
// per-bit SDC sensitivity of a datapath word, quantify its asymmetry (β),
// and pick the cheapest mix of hardened latch designs that reaches a
// 100x FIT-reduction target.
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/numeric"
)

func main() {
	const netName = "AlexNet"
	dt := numeric.Float16
	cfg := core.Config{Injections: 800, Inputs: 2, Seed: 3}

	// Per-bit sensitivity from a Figure 4 style campaign.
	f4, err := core.Fig4(cfg, netName, dt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hardening:", err)
		os.Exit(1)
	}
	s := harden.Sensitivity(f4.Sensitivity())
	fmt.Printf("%s/%s per-bit FIT sensitivity (nonzero bits):\n", netName, dt)
	for bit := dt.Width() - 1; bit >= 0; bit-- {
		if s[bit] > 0 {
			fmt.Printf("  bit %2d (%v): %.3g\n", bit, dt.Classify(bit), s[bit])
		}
	}
	fmt.Printf("asymmetry β = %.2f (uniform word would be β -> 0)\n\n", s.Beta())

	// Design space: single-technique plans vs the optimal mix.
	const target = 100.0
	fmt.Printf("plans reaching a %gx whole-word FIT reduction:\n", target)
	for _, d := range harden.Designs {
		a, ok := harden.SingleDesignPlan(s, d, target)
		if !ok {
			fmt.Printf("  %-5s: unreachable (max %gx per latch)\n", d.Name, d.Reduction)
			continue
		}
		fmt.Printf("  %-5s only: %5.1f%% latch area overhead\n", d.Name, a.Area()*100)
	}
	multi, ok := harden.MultiPlan(s, target)
	if !ok {
		fmt.Println("  Multi: unreachable")
		return
	}
	fmt.Printf("  Multi     : %5.1f%% latch area overhead\n", multi.Area()*100)
	fmt.Println("\nMulti assignment per bit:")
	for bit := dt.Width() - 1; bit >= 0; bit-- {
		if d := multi[bit]; d != nil {
			fmt.Printf("  bit %2d -> %s\n", bit, d.Name)
		}
	}
	achieved := s.Total() / multi.ResidualFIT(s)
	if math.IsInf(achieved, 0) {
		fmt.Println("residual FIT is zero")
	} else {
		fmt.Printf("achieved reduction: %.0fx\n", achieved)
	}
}
