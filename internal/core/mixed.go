package core

import (
	"math/rand"

	"repro/internal/eyeriss"
	"repro/internal/fit"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// MixedPrecisionRow evaluates the reduced-precision storage protocol the
// paper defers to future work (§6.1): fmaps are stored in the global
// buffer in Storage format and unfolded to Compute format in the datapath.
// Shrinking Storage cuts buffer FIT twice over — the buffer holds fewer
// bits (the S term of Eq. 1) AND a bounded-range storage format caps the
// value deviation a flipped bit can cause (the SDC term).
type MixedPrecisionRow struct {
	Network          string
	Compute, Storage numeric.Type
	// SDCProb is the SDC-1 probability of global-buffer faults under this
	// protocol.
	SDCProb float64
	// FIT scales the Table 7 global-buffer capacity by the storage width
	// (narrower words -> proportionally smaller buffer footprint for the
	// same fmaps).
	FIT float64
}

// MixedPrecisionRows is the protocol comparison table.
type MixedPrecisionRows []MixedPrecisionRow

// MixedPrecision evaluates the protocol with FLOAT compute and each cell's
// format as the storage format.
func MixedPrecision(cfg Config, cells []Cell) (MixedPrecisionRows, error) {
	rows := make(MixedPrecisionRows, len(cells))
	for i, c := range cells {
		var err error
		if rows[i], err = mixedPrecision(cfg, c.Net, numeric.Float, c.DType); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// mixedPrecision runs a global-buffer fault campaign with split
// compute/storage formats.
func mixedPrecision(cfg Config, netName string, compute, storage numeric.Type) (MixedPrecisionRow, error) {
	net, err := buildNet(cfg, netName)
	if err != nil {
		return MixedPrecisionRow{}, err
	}
	inputs := inputsFor(netName, cfg.Inputs)

	// Golden executions under the storage protocol.
	goldens := make([]*network.Execution, len(inputs))
	for i, in := range inputs {
		goldens[i] = net.ForwardStored(compute, storage, in)
	}

	// MAC-count residency weights over MAC layers.
	type macLayer struct {
		idx int
		cum int64
	}
	var macs []macLayer
	var total int64
	shape := net.InShape
	for i, l := range net.Layers {
		if m := l.MACs(shape); m > 0 {
			total += m
			macs = append(macs, macLayer{idx: i, cum: total})
		}
		shape = l.OutShape(shape)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var counts sdc.Counts
	for i := 0; i < cfg.Injections; i++ {
		g := goldens[i%len(inputs)]
		// Residency-weighted layer pick.
		m := rng.Int63n(total)
		li := macs[len(macs)-1].idx
		for _, ml := range macs {
			if m < ml.cum {
				li = ml.idx
				break
			}
		}
		in := g.Input
		if li > 0 {
			in = g.Acts[li-1]
		}
		corrupted := in.Clone()
		e := rng.Intn(len(corrupted.Data))
		// The upset flips a bit of the *stored* word.
		corrupted.Data[e] = storage.FlipBit(corrupted.Data[e], rng.Intn(storage.Width()))
		faulty := net.ForwardStoredFromInput(compute, storage, g, li, corrupted)
		counts.Add(sdc.Classify(net, g, faulty))
	}

	p := counts.Probability(sdc.SDC1)
	// Buffer footprint scales with the storage width relative to the
	// 16-bit words Table 7 assumes.
	bits := eyeriss.Params16nm.ComponentBits(eyeriss.GlobalBuffer)
	bits = bits * int64(storage.Width()) / 16
	return MixedPrecisionRow{
		Network: netName, Compute: compute, Storage: storage,
		SDCProb: p,
		FIT:     fit.Rate(bits, p),
	}, nil
}

// Format renders the protocol comparison.
func (rows MixedPrecisionRows) Format() string {
	t := &table{}
	t.add("Network", "Compute", "Storage", "GB SDC-1", "GB FIT")
	for _, r := range rows {
		t.addf("%s\t%s\t%s\t%s\t%.4g", r.Network, r.Compute, r.Storage, pct(r.SDCProb), r.FIT)
	}
	return t.String()
}
