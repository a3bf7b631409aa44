// Package accel models the canonical DNN accelerator datapath of the
// paper's Figure 1: an array of processing engines (PEs), each with an ALU
// consisting of a multiplier and an adder performing multiply-accumulate
// (MAC) operations. Faults in the datapath originate in the latches of the
// execution units; the minimum latch set to implement one MAC stage is the
// two operand latches, the product latch and the accumulator latch, each
// at the datapath word width — the conservative assumption the paper makes
// for its FIT calculation (§5.1.5).
//
// The package maps a random micro-architectural fault (an upset of one
// latch bit — or, for multi-bit upsets, a span of adjacent latch bits —
// during one MAC) onto the simulated computation: a (layer, output
// element, MAC step, latch, bit) coordinate consumed by the layers
// package.
package accel

import (
	"fmt"
	"math/rand"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
)

// LatchesPerPE is the minimum latch count of the canonical ALU: weight
// operand, activation operand, multiplier output and accumulator.
const LatchesPerPE = 4

// Datapath describes the execution-unit latch plane of an accelerator.
type Datapath struct {
	// NumPEs is the number of processing engines (1344 for Eyeriss
	// projected to 16 nm, Table 7).
	NumPEs int
	// DType is the datapath word width format.
	DType numeric.Type
}

// LatchBitsPerPE returns the number of datapath latch bits in one PE.
func (d Datapath) LatchBitsPerPE() int { return LatchesPerPE * d.DType.Width() }

// TotalLatchBits returns the number of datapath latch bits in the array —
// the S_component term of Eq. 1 for datapath faults.
func (d Datapath) TotalLatchBits() int64 {
	return int64(d.NumPEs) * int64(d.LatchBitsPerPE())
}

// Site is one concrete datapath fault: a single-bit upset consumed by one
// MAC of one layer of one inference.
type Site struct {
	// Layer indexes into the network's Layers slice (always a CONV/FC).
	Layer int
	// Fault carries the (output element, MAC step, latch, bit) coordinate.
	Fault layers.Fault
}

// String formats the site for logs.
func (s Site) String() string {
	return fmt.Sprintf("layer=%d out=%d step=%d %s bit=%d",
		s.Layer, s.Fault.OutputIndex, s.Fault.MACStep, s.Fault.Target, s.Fault.Bit)
}

// Profile precomputes the MAC geometry of a network so random sites can be
// drawn in O(#MAC-layers).
type Profile struct {
	net *network.Network
	dt  numeric.Type
	// layerIdx[i] is the network layer index of MAC layer i.
	layerIdx []int
	// chainLen[i] is the accumulation-chain length of MAC layer i.
	chainLen []int
	// macs[i] is the MAC count of MAC layer i; cum is the running total.
	macs []int64
	cum  []int64
	// total is the network's total MAC count.
	total int64
}

// NewProfile builds the fault-site geometry for a network under a format.
func NewProfile(net *network.Network, dt numeric.Type) *Profile {
	p := &Profile{net: net, dt: dt}
	shape := net.InShape
	for i, l := range net.Layers {
		if m := l.MACs(shape); m > 0 {
			p.layerIdx = append(p.layerIdx, i)
			p.macs = append(p.macs, m)
			p.total += m
			p.cum = append(p.cum, p.total)
			switch cl := l.(type) {
			case *layers.ConvLayer:
				p.chainLen = append(p.chainLen, cl.MACChainLen())
			case *layers.FCLayer:
				p.chainLen = append(p.chainLen, cl.MACChainLen())
			default:
				panic(fmt.Sprintf("accel: layer %s reports MACs but has no chain length", l.Name()))
			}
		}
		shape = l.OutShape(shape)
	}
	if p.total == 0 {
		panic(fmt.Sprintf("accel: network %s has no MAC layers", net.Name))
	}
	return p
}

// NumMACLayers returns the number of CONV/FC layers.
func (p *Profile) NumMACLayers() int { return len(p.layerIdx) }

// RandomSite draws a fault site uniformly over every (MAC, latch, bit)
// coordinate of one inference — the paper's random datapath injection.
func (p *Profile) RandomSite(rng *rand.Rand) Site { return p.Draw(rng, -1, -1, 1) }

// Draw draws a fault site whose upset flips mbu (≥ 1) adjacent latch bits:
// a MAC uniform over the network, or over paper-style block when block ≥ 0
// (the Fig. 6 per-layer experiment, a stratum's row); the span's base bit
// uniform over the word's Width()−mbu+1 in-word positions, or bit when
// bit ≥ 0 (the Fig. 4 per-bit experiment, a stratum's column, a site
// mode's whole-word unit); and the latch uniform. A forced coordinate
// consumes no randomness; the PRNG order is MAC index, base bit, latch.
// Fault.Width records a multi-bit span and stays 0 for mbu = 1.
func (p *Profile) Draw(rng *rand.Rand, block, bit, mbu int) Site {
	var mac int64
	if block >= 0 {
		mac = rng.Int63n(p.macs[block])
	} else {
		mac, block = rng.Int63n(p.total), 0
		for mac >= p.cum[block] {
			block++
		}
		if block > 0 {
			mac -= p.cum[block-1]
		}
	}
	if bit < 0 {
		bit = rng.Intn(p.dt.Width() - mbu + 1)
	}
	chain := int64(p.chainLen[block])
	s := Site{
		Layer: p.layerIdx[block],
		Fault: layers.Fault{
			OutputIndex: int(mac / chain),
			MACStep:     int(mac % chain),
			Target:      layers.Target(rng.Intn(int(layers.NumTargets))),
			Bit:         bit,
		},
	}
	if mbu > 1 {
		s.Fault.Width = mbu
	}
	return s
}

// BlockWeight returns the probability that a uniform random site lands in
// paper-style block i: the block's share of the network's MACs. (Latches
// and bits are uniform within a MAC, so they do not change the share.)
func (p *Profile) BlockWeight(i int) float64 {
	return float64(p.macs[i]) / float64(p.total)
}

// BlockOfSite returns the paper-style block number of a site.
func (p *Profile) BlockOfSite(s Site) int {
	for i, li := range p.layerIdx {
		if li == s.Layer {
			return i
		}
	}
	panic(fmt.Sprintf("accel: site layer %d is not a MAC layer", s.Layer))
}
