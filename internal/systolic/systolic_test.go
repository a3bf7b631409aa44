package systolic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// fxConv builds a conv layer with values small enough that 32b_rb26
// fixed-point arithmetic is exact and saturation-free, making every
// summation order produce identical bits — the precondition for the
// bit-exact equivalence tests.
func fxConv(seed int64, inC, outC, k, stride, pad int) *layers.ConvLayer {
	rng := rand.New(rand.NewSource(seed))
	l := layers.NewConv("c", inC, outC, k, stride, pad)
	for i := range l.Weights {
		l.Weights[i] = float64(rng.Intn(41)-20) / 256 // grid-exact, small
	}
	for i := range l.Bias {
		l.Bias[i] = float64(rng.Intn(17)-8) / 256
	}
	return l
}

func fxFC(seed int64, in, out int) *layers.FCLayer {
	rng := rand.New(rand.NewSource(seed))
	l := layers.NewFC("f", in, out)
	for i := range l.Weights {
		l.Weights[i] = float64(rng.Intn(41)-20) / 256
	}
	for i := range l.Bias {
		l.Bias[i] = float64(rng.Intn(17)-8) / 256
	}
	return l
}

func fxInput(seed int64, c, h, w int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(tensor.Shape{C: c, H: h, W: w})
	for i := range in.Data {
		in.Data[i] = float64(rng.Intn(41)-20) / 256
	}
	return in
}

// tinyArray tiles the test layers in both dimensions so the edge-tile and
// cross-tile paths are exercised.
var tinyArray = Params{Rows: 4, Cols: 3}

func TestGeometry(t *testing.T) {
	l := fxConv(1, 2, 4, 3, 1, 1)
	sim := NewFlow(l, numeric.Fx32RB26, tinyArray, WeightStationary)
	geo := sim.Geometry(tensor.Shape{C: 2, H: 6, W: 6})
	if geo.K != 18 || geo.Outs != 4 || geo.P != 36 {
		t.Errorf("K/Outs/P = %d/%d/%d, want 18/4/36", geo.K, geo.Outs, geo.P)
	}
	if geo.RowTiles != 5 || geo.ColTiles != 2 || geo.Passes != 10 {
		t.Errorf("tiles = %dx%d passes %d, want 5x2 passes 10", geo.RowTiles, geo.ColTiles, geo.Passes)
	}
	if geo.CyclesPerPass != 36+4+3-2 {
		t.Errorf("cycles/pass = %d, want %d", geo.CyclesPerPass, 36+4+3-2)
	}
	if ColTileEnd := geo.ColTileEnd(0); ColTileEnd != 3 {
		t.Errorf("ColTileEnd(0) = %d, want 3", ColTileEnd)
	}
	if ColTileEnd := geo.ColTileEnd(3); ColTileEnd != 4 {
		t.Errorf("ColTileEnd(3) = %d, want 4 (edge tile)", ColTileEnd)
	}
}

// TestDataflowTable checks each row of the dataflow table against the
// operands' logical indices — weight (K, Out), act (K, P), psum (Out, P):
// the resident operand is the one the PE's row and column axes index (the
// time axis does not), and the east-flowing one is indexed by the row and
// time axes, so it is constant along a PE row and can be forwarded east.
// The wire names and their order are what campaign specs and bench/ read.
func TestDataflowTable(t *testing.T) {
	indexes := map[Latch][2]int{
		LatchWeight: {axisK, axisOut}, LatchAct: {axisK, axisP}, LatchPsum: {axisOut, axisP},
	}
	pair := func(a, b int) [2]int { return [2]int{min(a, b), max(a, b)} }
	for d, f := range flows {
		if got, want := indexes[f.resident], pair(f.row, f.col); got != want {
			t.Errorf("%s: resident %s indexed by axes %v, want the row and column axes %v", f.name, f.resident, got, want)
		}
		if got, want := indexes[f.east], pair(f.row, f.time); f.east == LatchPsum || got != want {
			t.Errorf("%s: east %s indexed by axes %v, want the row and time axes %v", f.name, f.east, got, want)
		}
		if name := Dataflow(d).String(); name != DataflowNames[d] {
			t.Errorf("Dataflow(%d) = %q, DataflowNames[%d] = %q", d, name, d, DataflowNames[d])
		}
		if got, err := ParseDataflow(f.name); err != nil || got != Dataflow(d) {
			t.Errorf("ParseDataflow(%q) = %v, %v", f.name, got, err)
		}
	}
	if got := strings.Join(DataflowNames, ","); got != "weight,output,input" {
		t.Errorf("DataflowNames = %s", got)
	}
	if _, err := ParseDataflow("row"); err == nil || !strings.Contains(err.Error(), "want weight, output or input") {
		t.Errorf("ParseDataflow(row) error = %v", err)
	}
}

func TestGeometryPerDataflow(t *testing.T) {
	// K=18, Outs=4, P=36 on a 4×3 array; each dataflow tiles its own
	// (row, column) axes and streams the third through time.
	l := fxConv(1, 2, 4, 3, 1, 1)
	in := tensor.Shape{C: 2, H: 6, W: 6}
	cases := []struct {
		flow                       Dataflow
		rowTiles, colTiles, cycles int
	}{
		{WeightStationary, 5, 2, 36 + 4 + 3 - 2}, // rows↔K, cols↔Outs, time↔P
		{OutputStationary, 9, 2, 18 + 4 + 3 - 2}, // rows↔P, cols↔Outs, time↔K
		{InputStationary, 5, 12, 4 + 4 + 3 - 2},  // rows↔K, cols↔P, time↔Outs
	}
	for _, tc := range cases {
		geo := NewFlow(l, numeric.Fx32RB26, tinyArray, tc.flow).Geometry(in)
		if geo.K != 18 || geo.Outs != 4 || geo.P != 36 {
			t.Errorf("%s: K/Outs/P = %d/%d/%d, want 18/4/36", tc.flow, geo.K, geo.Outs, geo.P)
		}
		if geo.RowTiles != tc.rowTiles || geo.ColTiles != tc.colTiles {
			t.Errorf("%s: tiles = %dx%d, want %dx%d", tc.flow, geo.RowTiles, geo.ColTiles, tc.rowTiles, tc.colTiles)
		}
		if geo.Passes != tc.rowTiles*tc.colTiles {
			t.Errorf("%s: passes = %d, want %d", tc.flow, geo.Passes, tc.rowTiles*tc.colTiles)
		}
		if geo.CyclesPerPass != tc.cycles {
			t.Errorf("%s: cycles/pass = %d, want %d", tc.flow, geo.CyclesPerPass, tc.cycles)
		}
	}
	// The input-stationary column axis is the stream position.
	isGeo := NewFlow(l, numeric.Fx32RB26, tinyArray, InputStationary).Geometry(in)
	if end := isGeo.ColTileEnd(34); end != 36 {
		t.Errorf("input-stationary ColTileEnd(34) = %d, want 36 (edge P tile)", end)
	}
}

func TestFaultFreeMatchesLayersExactlyAllFormats(t *testing.T) {
	// The array folds every accumulation chain in the layers package's
	// chain order with the same quantize-then-MAC kernel, so the fault-free
	// output is bit-identical under EVERY format — including floats, where
	// the operation sequences coincide exactly (stronger than associativity
	// arguments).
	for flow := WeightStationary; flow < NumDataflows; flow++ {
		for _, dt := range numeric.Types {
			for trial := int64(0); trial < 8; trial++ {
				l := fxConv(trial, 1+int(trial%3), 1+int(trial%5), 1+int(trial%3), 1+int(trial%2), int(trial%2))
				in := fxInput(trial+100, l.InC, 5+int(trial%4), 5+int(trial%4))
				sim := NewFlow(l, dt, tinyArray, flow)
				got := sim.Run(in, nil)
				want := l.Forward(&layers.Context{DType: dt}, in)
				if got.Shape != want.Shape {
					t.Fatalf("%s/%s trial %d: shape %v vs %v", flow, dt, trial, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s/%s trial %d: out[%d] = %v, want %v", flow, dt, trial, i, got.Data[i], want.Data[i])
					}
				}
			}
			// FC layers map with P=1.
			fc := fxFC(3, 12, 7)
			in := fxInput(200, 1, 1, 12)
			got := NewFlow(fc, dt, tinyArray, flow).Run(in, nil)
			want := fc.Forward(&layers.Context{DType: dt}, in)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s/%s FC: out[%d] = %v, want %v", flow, dt, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestResolveEncodeRoundTrip(t *testing.T) {
	// Every logical site has exactly one physical address and vice versa —
	// under every dataflow's axis mapping.
	l := fxConv(5, 2, 4, 3, 1, 1)
	for flow := WeightStationary; flow < NumDataflows; flow++ {
		sim := NewFlow(l, numeric.Fx16RB10, tinyArray, flow)
		geo := sim.Geometry(tensor.Shape{C: 2, H: 5, W: 5})
		for k := 0; k < geo.K; k++ {
			for o := 0; o < geo.Outs; o++ {
				for p := 0; p < geo.P; p += 7 {
					for latch := Latch(0); latch < NumLatches; latch++ {
						s := Site{K: k, Out: o, P: p, Latch: latch, Bit: 3, Width: 1}
						f := geo.Encode(s)
						got, err := geo.Resolve(&f, 16)
						if err != nil {
							t.Fatalf("%s: Encode(%+v) = %+v unresolvable: %v", flow, s, f, err)
						}
						if got != s {
							t.Fatalf("%s: round trip %+v -> %+v -> %+v", flow, s, f, got)
						}
					}
				}
			}
		}
	}
}

func TestResolveRejectsInvalidAddresses(t *testing.T) {
	l := fxConv(5, 2, 4, 3, 1, 1)
	sim := NewFlow(l, numeric.Fx16RB10, tinyArray, WeightStationary)
	geo := sim.Geometry(tensor.Shape{C: 2, H: 5, W: 5})
	bad := []Fault{
		{Latch: NumLatches}, // unknown latch
		{Latch: -1},         // unknown latch
		{Bit: -1},           // bit below word
		{Bit: 15, Width: 2}, // MBU span past word end
		{Bit: 16},           // bit past word end
		{Width: -2},         // negative width
		{Pass: geo.Passes},  // pass out of range
		{Pass: -1},          // pass out of range
		{Row: geo.Rows},     // row off the array
		{Col: geo.Cols},     // col off the array
		{Pass: geo.Passes - 2, Row: geo.Rows - 1, Cycle: 3}, // idle row: last row tile holds K%Rows rows
		{Pass: 1, Col: geo.Cols - 1, Cycle: 4},              // idle col: edge column tile holds Outs%Cols cols
		{Cycle: geo.CyclesPerPass + 5},                      // beyond the drain
		{Row: 2, Col: 1, Cycle: 1},                          // fill skew: operand not yet arrived
		{Row: 0, Col: 0, Cycle: geo.P},                      // drain skew: stream already past
	}
	for _, f := range bad {
		f := f
		if _, err := geo.Resolve(&f, 16); err == nil {
			t.Errorf("Resolve(%+v) accepted an invalid address", f)
		}
	}
}

func TestPhysicalFaultMatchesAbstractFault(t *testing.T) {
	// A single-MAC physical fault must produce exactly the ofmap of the
	// layers package's per-MAC fault: act and psum latches always, weight
	// at the last stream position, pipe with one downstream consumer.
	dt := numeric.Fx32RB26
	l := fxConv(3, 2, 4, 3, 1, 1)
	in := fxInput(103, 2, 6, 6)
	sim := NewFlow(l, dt, tinyArray, WeightStationary)
	geo := sim.Geometry(in.Shape)
	rng := rand.New(rand.NewSource(17))

	compare := func(f *Fault) {
		t.Helper()
		af, ok := sim.AbstractFault(f, in.Shape)
		if !ok {
			t.Fatalf("fault not comparable: %+v", f)
		}
		phys := sim.Run(in, f)
		if !f.Applied {
			t.Fatalf("physical fault not applied: %+v", f)
		}
		abs := l.Forward(&layers.Context{DType: dt, Fault: &af}, in)
		if !af.Applied {
			t.Fatalf("abstract fault not applied: %+v", af)
		}
		for i := range abs.Data {
			if phys.Data[i] != abs.Data[i] {
				t.Fatalf("fault %+v -> %+v: out[%d] = %v (physical) vs %v (abstract)",
					f, af, i, phys.Data[i], abs.Data[i])
			}
		}
	}

	seen := map[Latch]int{}
	for tested := 0; tested < 120; {
		f := sim.RandomFault(rng, in.Shape)
		f.Bit = rng.Intn(30) // keep clear of sign-bit saturation clipping
		if _, ok := sim.AbstractFault(f, in.Shape); !ok {
			continue
		}
		compare(f)
		seen[f.Latch]++
		tested++
	}
	// The always-single-MAC latches must show up in a random sample; the
	// conditional weight/pipe cases are rare and forced explicitly below.
	if seen[LatchAct] == 0 || seen[LatchPsum] == 0 {
		t.Errorf("random sample missed a single-MAC latch: %v", seen)
	}

	// Force the two conditional cases: a weight fault at the last stream
	// position and a pipe fault one PE west of its tile edge.
	wf := geo.Encode(Site{K: 5, Out: 1, P: geo.P - 1, Latch: LatchWeight, Bit: 20, Width: 1})
	compare(&wf)
	pf := geo.Encode(Site{K: 5, Out: 1, P: 4, Latch: LatchPipe, Bit: 20, Width: 1})
	compare(&pf)
	// And their negatives.
	wf2 := geo.Encode(Site{K: 5, Out: 1, P: 0, Latch: LatchWeight, Bit: 20, Width: 1})
	if _, ok := sim.AbstractFault(&wf2, in.Shape); ok {
		t.Error("mid-stream weight fault wrongly comparable (corrupts many MACs)")
	}
	pf2 := geo.Encode(Site{K: 5, Out: 0, P: 4, Latch: LatchPipe, Bit: 20, Width: 1})
	if _, ok := sim.AbstractFault(&pf2, in.Shape); ok {
		t.Error("pipe fault with two downstream consumers wrongly comparable")
	}
}

// TestDataflowAbstractFaults is TestPhysicalFaultMatchesAbstractFault
// for the new dataflows: under each one, the latches the dataflow makes
// single-read must produce exactly the layers package's per-MAC ofmap,
// and the resident/pipe latches must be comparable exactly at their
// single-remaining-read / one-downstream-consumer boundary conditions.
func TestDataflowAbstractFaults(t *testing.T) {
	dt := numeric.Fx32RB26
	l := fxConv(3, 2, 4, 3, 1, 1)
	in := fxInput(103, 2, 6, 6)

	for _, flow := range []Dataflow{OutputStationary, InputStationary} {
		sim := NewFlow(l, dt, tinyArray, flow)
		geo := sim.Geometry(in.Shape)

		compare := func(f *Fault) {
			t.Helper()
			af, ok := sim.AbstractFault(f, in.Shape)
			if !ok {
				t.Fatalf("%s: fault not comparable: %+v", flow, f)
			}
			phys := sim.Run(in, f)
			if !f.Applied {
				t.Fatalf("%s: physical fault not applied: %+v", flow, f)
			}
			abs := l.Forward(&layers.Context{DType: dt, Fault: &af}, in)
			if !af.Applied {
				t.Fatalf("%s: abstract fault not applied: %+v", flow, af)
			}
			for i := range abs.Data {
				if phys.Data[i] != abs.Data[i] {
					t.Fatalf("%s: fault %+v -> %+v: out[%d] = %v (physical) vs %v (abstract)",
						flow, f, af, i, phys.Data[i], abs.Data[i])
				}
			}
		}

		// The dataflow's single-read latches at an interior site.
		single := []Latch{LatchWeight, LatchPsum}
		if flow == OutputStationary {
			single = append(single, LatchAct)
		}
		for _, latch := range single {
			f := geo.Encode(Site{K: 5, Out: 1, P: 7, Latch: latch, Bit: 20, Width: 1})
			compare(&f)
		}

		if flow == InputStationary {
			// Resident act: comparable only at the last time step (output).
			lf := geo.Encode(Site{K: 5, Out: geo.Outs - 1, P: 7, Latch: LatchAct, Bit: 20, Width: 1})
			compare(&lf)
			mid := geo.Encode(Site{K: 5, Out: 0, P: 7, Latch: LatchAct, Bit: 20, Width: 1})
			if _, ok := sim.AbstractFault(&mid, in.Shape); ok {
				t.Errorf("%s: early resident act fault wrongly comparable (corrupts many MACs)", flow)
			}
			// Pipe walks P: one downstream consumer at the P-tile edge - 2.
			end := geo.ColTileEnd(0)
			pf := geo.Encode(Site{K: 5, Out: 1, P: end - 2, Latch: LatchPipe, Bit: 20, Width: 1})
			compare(&pf)
		} else {
			// Pipe walks Out: one downstream consumer one PE west of the edge.
			pf := geo.Encode(Site{K: 5, Out: 1, P: 7, Latch: LatchPipe, Bit: 20, Width: 1})
			compare(&pf)
			pf2 := geo.Encode(Site{K: 5, Out: 0, P: 7, Latch: LatchPipe, Bit: 20, Width: 1})
			if _, ok := sim.AbstractFault(&pf2, in.Shape); ok {
				t.Errorf("%s: pipe fault with two downstream consumers wrongly comparable", flow)
			}
		}
	}
}

func TestWeightFaultCorruptsStreamSuffix(t *testing.T) {
	// A weight-register flip at stream position p0 corrupts the faulted
	// output column at positions p0..P-1 and nothing else: the register
	// reloads at the next pass.
	dt := numeric.Fx32RB26
	l := fxConv(7, 1, 2, 3, 1, 1)
	in := fxInput(107, 1, 6, 6)
	sim := NewFlow(l, dt, tinyArray, WeightStationary)
	geo := sim.Geometry(in.Shape)
	golden := sim.Run(in, nil)

	s := Site{K: 4, Out: 1, P: 10, Latch: LatchWeight, Bit: 28, Width: 1}
	f := geo.Encode(s)
	faulty := sim.Run(in, &f)
	if !f.Applied {
		t.Fatal("weight fault not applied")
	}
	for i := range golden.Data {
		o, p := i/geo.P, i%geo.P
		inSuffix := o == s.Out && p >= s.P
		if !inSuffix && golden.Data[i] != faulty.Data[i] {
			t.Fatalf("weight fault leaked to output (%d,%d)", o, p)
		}
	}
	// The flip is a high bit on exact fixed point, so the struck position
	// itself must actually change.
	if golden.Data[s.Out*geo.P+s.P] == faulty.Data[s.Out*geo.P+s.P] {
		t.Error("weight fault did not corrupt the struck stream position")
	}
}

func TestPipeFaultCorruptsDownstreamPEs(t *testing.T) {
	// A pipeline-register flip corrupts only the PEs east of the fault in
	// the same column tile, all at the struck stream position.
	dt := numeric.Fx32RB26
	l := fxConv(9, 1, 3, 3, 1, 1)
	in := fxInput(109, 1, 6, 6)
	sim := NewFlow(l, dt, tinyArray, WeightStationary) // Cols=3: one full column tile
	geo := sim.Geometry(in.Shape)
	golden := sim.Run(in, nil)

	s := Site{K: 2, Out: 0, P: 12, Latch: LatchPipe, Bit: 28, Width: 1}
	f := geo.Encode(s)
	faulty := sim.Run(in, &f)
	if !f.Applied {
		t.Fatal("pipe fault with downstream consumers not applied")
	}
	changed := 0
	for i := range golden.Data {
		o, p := i/geo.P, i%geo.P
		downstream := o > s.Out && o < geo.ColTileEnd(s.Out) && p == s.P
		if golden.Data[i] != faulty.Data[i] {
			changed++
			if !downstream {
				t.Fatalf("pipe fault leaked to output (%d,%d)", o, p)
			}
		}
	}
	if changed != 2 {
		t.Errorf("pipe fault corrupted %d outputs, want 2 (columns 1 and 2 at P)", changed)
	}
}

func TestPipeFaultAtTileEdgeArchMasked(t *testing.T) {
	// At the east edge of a column tile the corrupted operand leaves the
	// array unconsumed: nothing changes and the fault reports unapplied.
	dt := numeric.Fx32RB26
	l := fxConv(9, 1, 4, 3, 1, 1)
	in := fxInput(111, 1, 6, 6)
	sim := NewFlow(l, dt, tinyArray, WeightStationary) // Outs=4, Cols=3: col tile 1 holds only output 3
	geo := sim.Geometry(in.Shape)
	golden := sim.Run(in, nil)

	s := Site{K: 1, Out: 3, P: 5, Latch: LatchPipe, Bit: 28, Width: 1}
	f := geo.Encode(s)
	faulty := sim.Run(in, &f)
	if f.Applied {
		t.Error("architecturally masked pipe fault reported applied")
	}
	for i := range golden.Data {
		if golden.Data[i] != faulty.Data[i] {
			t.Fatal("architecturally masked pipe fault changed the output")
		}
	}
}

func TestMBUFlipsAdjacentBits(t *testing.T) {
	// A width-w fault inverts w adjacent bits of the struck latch word.
	for _, dt := range numeric.Types {
		v := 0.3125
		got := dt.FlipBits(v, 2, 3)
		want := dt.Decode(dt.Encode(v) ^ (0b111 << 2))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: FlipBits = %v, want %v", dt, got, want)
		}
		if math.Float64bits(dt.FlipBits(v, 4, 1)) != math.Float64bits(dt.FlipBit(v, 4)) {
			t.Errorf("%s: width-1 flip is not FlipBit", dt)
		}
	}

	// In the array, an MBU on the psum latch equals flipping the mask on
	// the accumulator word directly.
	dt := numeric.Fx32RB26
	l := fxConv(13, 1, 2, 3, 1, 1)
	in := fxInput(113, 1, 5, 5)
	sim := NewFlow(l, dt, tinyArray, WeightStationary)
	geo := sim.Geometry(in.Shape)
	golden := sim.Run(in, nil)

	s := Site{K: geo.K - 1, Out: 1, P: 3, Latch: LatchPsum, Bit: 24, Width: 3}
	f := geo.Encode(s)
	faulty := sim.Run(in, &f)
	oi := s.Out*geo.P + s.P
	want := dt.FlipBits(golden.Data[oi], s.Bit, s.Width)
	if math.Float64bits(faulty.Data[oi]) != math.Float64bits(want) {
		t.Errorf("MBU on final psum: got %v, want %v", faulty.Data[oi], want)
	}
}

func TestRandomFaultInRange(t *testing.T) {
	l := fxConv(11, 2, 3, 3, 1, 1)
	sim := NewFlow(l, numeric.Fx16RB10, tinyArray, WeightStationary)
	rng := rand.New(rand.NewSource(23))
	shape := tensor.Shape{C: 2, H: 6, W: 6}
	geo := sim.Geometry(shape)
	for i := 0; i < 500; i++ {
		f := sim.RandomFault(rng, shape)
		if _, err := geo.Resolve(f, 16); err != nil {
			t.Fatalf("RandomFault produced an unresolvable address %+v: %v", f, err)
		}
	}
}

func TestLatchStrings(t *testing.T) {
	want := map[Latch]string{
		LatchWeight: "weight", LatchAct: "act-reg",
		LatchPsum: "psum-reg", LatchPipe: "pipeline-reg",
	}
	for latch, s := range want {
		if latch.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(latch), latch.String(), s)
		}
	}
}

// TestEverySiteMatchesEffects is FuzzDataflowFault's equivalence proof run
// exhaustively: under every dataflow, on the fuzzer's CONV and FC layers in
// FLOAT16, every logical site of every latch — at one single-bit flip and
// one 2-bit span — simulated at its physical address equals the golden
// output with the campaign's corruption front (Geometry.effects) replayed
// by the per-tap oracle, and the simulator consumes the fault exactly when
// it is not the architecturally masked pipe fault.
func TestEverySiteMatchesEffects(t *testing.T) {
	dt := numeric.Float16
	width := dt.Width()
	for _, fc := range []bool{false, true} {
		l, in := fuzzLayer(fc)
		for flow := WeightStationary; flow < NumDataflows; flow++ {
			sim := NewFlow(l, dt, tinyArray, flow)
			geo := sim.Geometry(in.Shape)
			golden := sim.Run(in, nil).Data
			want := append([]float64(nil), golden...)
			var elems []int
			for k := 0; k < geo.K; k++ {
				for o := 0; o < geo.Outs; o++ {
					for p := 0; p < geo.P; p++ {
						for latch := Latch(0); latch < NumLatches; latch++ {
							spin := 5*k + 3*o + p + int(latch)
							for _, s := range []Site{
								{K: k, Out: o, P: p, Latch: latch, Bit: spin % width, Width: 1},
								{K: k, Out: o, P: p, Latch: latch, Bit: spin % (width - 1), Width: 2},
							} {
								fault := geo.Encode(s)
								got := sim.Run(in, &fault).Data
								if fault.Applied == geo.PipeMasked(s) {
									t.Fatalf("%s fc=%v: site %+v: applied=%v, arch-masked=%v", flow, fc, s, fault.Applied, geo.PipeMasked(s))
								}
								var target layers.Target
								target, elems = geo.effects(elems[:0], s)
								for _, oi := range elems {
									want[oi] = chainEval(l, dt, in, oi, s, target)
								}
								for i := range want {
									if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
										t.Fatalf("%s fc=%v: site %+v: out[%d] = %v (sim) vs %v (effects)", flow, fc, s, i, got[i], want[i])
									}
								}
								for _, oi := range elems {
									want[oi] = golden[oi]
								}
							}
						}
					}
				}
			}
		}
	}
}
