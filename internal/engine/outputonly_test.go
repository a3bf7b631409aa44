package engine_test

import (
	"encoding/json"
	"testing"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
)

// TestObservedActivationsStayExact: a slot runs its scratch output-only
// (network.SlotScratch.OutputOnly) only when nothing reads faulty
// activations, so a campaign whose detector or spread metric reads them
// must report what it reports with the output-only walk switched off, on
// every format. A slot that went output-only here would tally certified
// runs' golden activations as their spread and detector verdicts.
func TestObservedActivationsStayExact(t *testing.T) {
	for _, dt := range numeric.Types {
		net := models.Build(fixtureNet)
		ins := fixtureInputsFor(fixtureNet)
		det := detect.Learn(net, dt, ins, detect.DefaultCushion)
		detector := func(e *network.Execution) bool { return det.Check(net, e) }
		o := engine.Options{N: 600, Seed: 5, Workers: 3}
		withDet := o
		withDet.Detector = detector
		for _, c := range []struct {
			name string
			run  func() any
		}{
			{"datapath/spread", func() any {
				return faultinj.New(net, dt, ins).Run(faultinj.Options{Options: o, TrackSpread: true})
			}},
			{"datapath/detector", func() any {
				return faultinj.New(net, dt, ins).Run(faultinj.Options{Options: withDet})
			}},
			{"buffer_global/detector", func() any {
				c := &eyeriss.Campaign{Campaign: engine.Campaign{Net: net, DType: dt, Inputs: ins}}
				return c.Run(eyeriss.GlobalBuffer, withDet)
			}},
		} {
			reports := make([][]byte, 2)
			for i, on := range []bool{true, false} {
				restore := engine.SetOutputOnlyWalk(on)
				b, err := json.Marshal(c.run())
				restore()
				if err != nil {
					t.Fatal(err)
				}
				reports[i] = b
			}
			if string(reports[0]) != string(reports[1]) {
				t.Errorf("%s/%s: the report moves with the output-only walk:\n%s\n%s", c.name, dt, reports[0], reports[1])
			}
		}
	}
}
