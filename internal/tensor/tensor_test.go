package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeElems(t *testing.T) {
	if got := (Shape{C: 3, H: 4, W: 5}).Elems(); got != 60 {
		t.Errorf("Elems = %d, want 60", got)
	}
	if got := (Shape{C: 10, H: 1, W: 1}).Elems(); got != 10 {
		t.Errorf("Elems = %d, want 10", got)
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{C: 3, H: 4, W: 5}).String(); got != "3x4x5" {
		t.Errorf("String = %q", got)
	}
}

func TestNewZeroed(t *testing.T) {
	tr := New(Shape{C: 2, H: 3, W: 4})
	if len(tr.Data) != 24 {
		t.Fatalf("len = %d, want 24", len(tr.Data))
	}
	for i, v := range tr.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero extent did not panic")
		}
	}()
	New(Shape{C: 0, H: 1, W: 1})
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(Shape{C: 2, H: 2, W: 2}, make([]float64, 7))
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	tr := New(Shape{C: 3, H: 5, W: 7})
	for c := 0; c < 3; c++ {
		for h := 0; h < 5; h++ {
			for w := 0; w < 7; w++ {
				i := tr.Index(c, h, w)
				gc, gh, gw := tr.Coords(i)
				if gc != c || gh != h || gw != w {
					t.Fatalf("Coords(Index(%d,%d,%d)) = (%d,%d,%d)", c, h, w, gc, gh, gw)
				}
			}
		}
	}
}

func TestAtSet(t *testing.T) {
	tr := New(Shape{C: 2, H: 2, W: 2})
	tr.Set(1, 0, 1, 42)
	if got := tr.At(1, 0, 1); got != 42 {
		t.Errorf("At = %v, want 42", got)
	}
	// CHW layout: element (1,0,1) is at offset 1*4 + 0*2 + 1 = 5.
	if tr.Data[5] != 42 {
		t.Errorf("Data[5] = %v, want 42 (CHW ordering)", tr.Data[5])
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(Shape{C: 1, H: 2, W: 2})
	a.Fill(3)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 3 {
		t.Error("Clone shares backing storage")
	}
}

func TestMinMax(t *testing.T) {
	tr := FromSlice(Shape{C: 1, H: 1, W: 5}, []float64{3, -7, 2, 9, 0})
	min, max := tr.MinMax()
	if min != -7 || max != 9 {
		t.Errorf("MinMax = (%v,%v), want (-7,9)", min, max)
	}
}

func TestApply(t *testing.T) {
	tr := FromSlice(Shape{C: 1, H: 1, W: 3}, []float64{-1, 0, 2})
	tr.Apply(func(v float64) float64 { return v * 2 })
	want := []float64{-2, 0, 4}
	for i, v := range tr.Data {
		if v != want[i] {
			t.Errorf("Data[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestEuclideanDistance(t *testing.T) {
	a := FromSlice(Shape{C: 1, H: 1, W: 3}, []float64{0, 0, 0})
	b := FromSlice(Shape{C: 1, H: 1, W: 3}, []float64{3, 4, 0})
	if got := EuclideanDistance(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("distance = %v, want 5", got)
	}
	if got := EuclideanDistance(a, a); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
}

func TestEuclideanDistanceNonFinite(t *testing.T) {
	a := FromSlice(Shape{C: 1, H: 1, W: 2}, []float64{0, 0})
	b := FromSlice(Shape{C: 1, H: 1, W: 2}, []float64{math.Inf(1), 0})
	if got := EuclideanDistance(a, b); got != math.MaxFloat64 {
		t.Errorf("distance with Inf = %v, want MaxFloat64 sentinel", got)
	}
	c := FromSlice(Shape{C: 1, H: 1, W: 2}, []float64{math.NaN(), 0})
	if got := EuclideanDistance(a, c); got != math.MaxFloat64 {
		t.Errorf("distance with NaN = %v, want MaxFloat64 sentinel", got)
	}
}

func TestEuclideanDistanceShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	EuclideanDistance(New(Shape{C: 1, H: 1, W: 2}), New(Shape{C: 1, H: 1, W: 3}))
}

func TestBitwiseMismatch(t *testing.T) {
	a := FromSlice(Shape{C: 1, H: 1, W: 4}, []float64{1, 2, 3, math.NaN()})
	b := FromSlice(Shape{C: 1, H: 1, W: 4}, []float64{1, 5, 3, math.NaN()})
	if got := BitwiseMismatch(a, b); got != 1 {
		t.Errorf("mismatch = %d, want 1 (NaN==NaN for this metric)", got)
	}
}

func TestArgTopK(t *testing.T) {
	tr := FromSlice(Shape{C: 6, H: 1, W: 1}, []float64{0.1, 0.9, 0.3, 0.9, 0.05, 0.7})
	got := tr.ArgTopK(3)
	want := []int{1, 3, 5} // ties resolve to lower index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgTopK = %v, want %v", got, want)
		}
	}
}

func TestArgTopKClampsK(t *testing.T) {
	tr := FromSlice(Shape{C: 2, H: 1, W: 1}, []float64{1, 2})
	if got := tr.ArgTopK(10); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("ArgTopK(10) = %v", got)
	}
}

func TestArgTopKNaNRanksLast(t *testing.T) {
	tr := FromSlice(Shape{C: 3, H: 1, W: 1}, []float64{math.NaN(), 0.5, 0.1})
	got := tr.ArgTopK(3)
	if got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("ArgTopK with NaN = %v, want [1 2 0]", got)
	}
}

// TestArgMaxAndRankMatchArgTopK pins the two allocation-free rankings to the
// order they abbreviate, on vectors dense with ties, NaNs, infinities and
// signed zeros.
func TestArgMaxAndRankMatchArgTopK(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, 1, -1, 0.5, math.Inf(1), math.Inf(-1), math.NaN(), math.NaN(), 1e-300, -1e300}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		tr := New(Shape{C: n, H: 1, W: 1})
		for i := range tr.Data {
			tr.Data[i] = pool[rng.Intn(len(pool))]
		}
		order := tr.ArgTopK(n)
		if got := tr.ArgMax(); got != order[0] {
			t.Fatalf("%v: ArgMax = %d, ArgTopK leads with %d", tr.Data, got, order[0])
		}
		for r, i := range order {
			if got := tr.Rank(i); got != r {
				t.Fatalf("%v: Rank(%d) = %d, ArgTopK places it at %d", tr.Data, i, got, r)
			}
		}
	}
}

func TestPropertyIndexBijective(t *testing.T) {
	prop := func(cs, hs, ws uint8) bool {
		s := Shape{C: int(cs%5) + 1, H: int(hs%5) + 1, W: int(ws%5) + 1}
		tr := New(s)
		seen := make(map[int]bool)
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					i := tr.Index(c, h, w)
					if i < 0 || i >= s.Elems() || seen[i] {
						return false
					}
					seen[i] = true
				}
			}
		}
		return len(seen) == s.Elems()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistanceSymmetricNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := rng.Intn(20) + 1
		a, b := NewVector(n), NewVector(n)
		for j := 0; j < n; j++ {
			a.Data[j], b.Data[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		dab, dba := EuclideanDistance(a, b), EuclideanDistance(b, a)
		if dab < 0 || math.Abs(dab-dba) > 1e-12 {
			t.Fatalf("distance not symmetric/non-negative: %v vs %v", dab, dba)
		}
	}
}
