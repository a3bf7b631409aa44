package dataset

import (
	"math"
	"testing"
)

func TestImageDeterministic(t *testing.T) {
	a := Image(CIFARLike, 16, 7)
	b := Image(CIFARLike, 16, 7)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Image not deterministic for identical parameters")
		}
	}
}

func TestImageDistinctIndices(t *testing.T) {
	a := Image(CIFARLike, 16, 0)
	b := Image(CIFARLike, 16, 1)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different indices produced identical images")
	}
}

func TestImageShape(t *testing.T) {
	img := Image(ImageNetLike, 24, 0)
	if img.Shape.C != 3 || img.Shape.H != 24 || img.Shape.W != 24 {
		t.Errorf("shape = %v", img.Shape)
	}
}

func TestCIFARScale(t *testing.T) {
	img := Image(CIFARLike, 32, 2)
	min, max := img.MinMax()
	if min < -2.01 || max > 2.01 {
		t.Errorf("CIFAR-like range [%v,%v] outside [-2,2]", min, max)
	}
	if max-min < 1 {
		t.Errorf("CIFAR-like span %v suspiciously small", max-min)
	}
}

func TestImageNetScale(t *testing.T) {
	img := Image(ImageNetLike, 24, 2)
	min, max := img.MinMax()
	if min < -128.01 || max > 127.01 {
		t.Errorf("ImageNet-like range [%v,%v] outside [-128,127]", min, max)
	}
	if max-min < 100 {
		t.Errorf("ImageNet-like span %v too small for raw-pixel scale", max-min)
	}
}

func TestImageSpatialCorrelation(t *testing.T) {
	// Neighbouring pixels must correlate more than distant ones (the
	// natural-image property the blob construction provides).
	img := Image(ImageNetLike, 24, 5)
	var near, far float64
	n := 0
	for y := 0; y < 23; y++ {
		for x := 0; x < 23; x++ {
			near += math.Abs(img.At(0, y, x) - img.At(0, y, x+1))
			far += math.Abs(img.At(0, y, x) - img.At(0, 23-y, 23-x))
			n++
		}
	}
	if near >= far {
		t.Errorf("no spatial correlation: near diff %v >= far diff %v", near/float64(n), far/float64(n))
	}
}

func TestImageFinite(t *testing.T) {
	for idx := 0; idx < 5; idx++ {
		img := Image(CIFARLike, 32, idx)
		for i, v := range img.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("image %d element %d non-finite", idx, i)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if CIFARLike.String() != "cifar-like" || ImageNetLike.String() != "imagenet-like" {
		t.Error("Kind.String mismatch")
	}
}
