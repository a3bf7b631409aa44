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

// TotalMACs returns the network's MAC count per inference.
func (p *Profile) TotalMACs() int64 { return p.total }

// NumMACLayers returns the number of CONV/FC layers.
func (p *Profile) NumMACLayers() int { return len(p.layerIdx) }

// LayerMACs returns the MAC count of MAC layer i (paper-style block i).
func (p *Profile) LayerMACs(i int) int64 { return p.macs[i] }

// RandomSite draws a fault site uniformly over every (MAC, latch, bit)
// coordinate of one inference — the paper's random datapath injection.
func (p *Profile) RandomSite(rng *rand.Rand) Site {
	mac := rng.Int63n(p.total)
	block := 0
	for mac >= p.cum[block] {
		block++
	}
	if block > 0 {
		mac -= p.cum[block-1]
	}
	return p.siteForMAC(rng, block, mac, rng.Intn(p.dt.Width()))
}

// RandomSiteMBU draws like RandomSite but models a multi-bit upset: every
// injection flips mbu adjacent bits, so the base bit is drawn uniformly
// over the word's Width()−mbu+1 in-word spans and Fault.Width records the
// span. PRNG draw order (MAC index, base bit, latch) matches RandomSite;
// mbu ≤ 1 is exactly RandomSite.
func (p *Profile) RandomSiteMBU(rng *rand.Rand, mbu int) Site {
	if mbu <= 1 {
		return p.RandomSite(rng)
	}
	mac := rng.Int63n(p.total)
	block := 0
	for mac >= p.cum[block] {
		block++
	}
	if block > 0 {
		mac -= p.cum[block-1]
	}
	s := p.siteForMAC(rng, block, mac, rng.Intn(p.dt.Width()-mbu+1))
	s.Fault.Width = mbu
	return s
}

// RandomSiteInBlock draws a site uniformly over the MACs of one paper-style
// block (CONV/FC layer position) — the Fig. 6 per-layer experiment.
func (p *Profile) RandomSiteInBlock(rng *rand.Rand, block int) Site {
	mac := rng.Int63n(p.macs[block])
	return p.siteForMAC(rng, block, mac, rng.Intn(p.dt.Width()))
}

// RandomSiteInBlockWithBit draws a site uniformly over the MACs of one
// paper-style block with a fixed flipped-bit position — the conditional
// distribution a (block, bit) stratum of the stratified sampler injects
// from. Consumes exactly two PRNG values: the MAC index and the latch.
func (p *Profile) RandomSiteInBlockWithBit(rng *rand.Rand, block, bit int) Site {
	mac := rng.Int63n(p.macs[block])
	return p.siteForMAC(rng, block, mac, bit)
}

// BlockWeight returns the probability that a uniform random site lands in
// paper-style block i: the block's share of the network's MACs. (Latches
// and bits are uniform within a MAC, so they do not change the share.)
func (p *Profile) BlockWeight(i int) float64 {
	return float64(p.macs[i]) / float64(p.total)
}

// RandomSiteWithBit draws a random MAC and latch but fixes the flipped bit
// position — the Fig. 4 per-bit sensitivity experiment.
func (p *Profile) RandomSiteWithBit(rng *rand.Rand, bit int) Site {
	mac := rng.Int63n(p.total)
	block := 0
	for mac >= p.cum[block] {
		block++
	}
	if block > 0 {
		mac -= p.cum[block-1]
	}
	return p.siteForMAC(rng, block, mac, bit)
}

func (p *Profile) siteForMAC(rng *rand.Rand, block int, mac int64, bit int) Site {
	chain := int64(p.chainLen[block])
	return Site{
		Layer: p.layerIdx[block],
		Fault: layers.Fault{
			OutputIndex: int(mac / chain),
			MACStep:     int(mac % chain),
			Target:      layers.Target(rng.Intn(int(layers.NumTargets))),
			Bit:         bit,
		},
	}
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
