// Package dataset generates the deterministic synthetic input images the
// reproduction uses in place of CIFAR-10 and ImageNet (see DESIGN.md,
// "Substitutions"). Images are sums of smooth random blobs plus noise, so
// they have the spatial correlation of natural images, and they are fully
// determined by (dataset kind, index) — every fault-injection run sees a
// reproducible input set.
//
// Scaling follows the originals: CIFAR-like images are normalized to
// roughly [-2, 2] (hence ConvNet's small Table 4 activation ranges), while
// ImageNet-like images are mean-subtracted raw pixels in [-128, 127]
// (hence the hundreds-scale layer-1 ranges of AlexNet/CaffeNet/NiN).
package dataset

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Kind selects the synthetic dataset family.
type Kind int

const (
	// CIFARLike mimics normalized 32x32x3 CIFAR-10 inputs.
	CIFARLike Kind = iota
	// ImageNetLike mimics mean-subtracted raw-pixel ImageNet crops.
	ImageNetLike
)

// String names the dataset kind.
func (k Kind) String() string {
	if k == CIFARLike {
		return "cifar-like"
	}
	return "imagenet-like"
}

// Image generates image number idx of the dataset at the given square
// spatial size with 3 channels. The same (kind, size, idx) always produces
// the same tensor.
func Image(kind Kind, size, idx int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(int64(kind)*1e9 + int64(size)*1e6 + int64(idx)))
	img := tensor.New(tensor.Shape{C: 3, H: size, W: size})

	// Smooth structure: a handful of Gaussian blobs per channel with
	// channel-correlated positions (like real photos).
	nBlobs := 4 + rng.Intn(4)
	type blob struct {
		cx, cy, sigma float64
		amp           [3]float64
	}
	blobs := make([]blob, nBlobs)
	for i := range blobs {
		b := blob{
			cx:    rng.Float64() * float64(size),
			cy:    rng.Float64() * float64(size),
			sigma: (0.08 + float64(0.25*rng.Float64())) * float64(size),
		}
		base := float64(float64(rng.Float64())*2) - 1
		for c := 0; c < 3; c++ {
			b.amp[c] = base + float64(0.4*(float64(float64(rng.Float64())*2)-1))
		}
		blobs[i] = b
	}
	for c := 0; c < 3; c++ {
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				var v float64
				for _, b := range blobs {
					dx, dy := float64(x)-b.cx, float64(y)-b.cy
					v += float64(b.amp[c] * math.Exp(-(float64(dx*dx)+float64(dy*dy))/(2*b.sigma*b.sigma)))
				}
				v += float64(0.15 * rng.NormFloat64()) // sensor-like noise
				img.Set(c, y, x, v)
			}
		}
	}

	// Normalize per image to a fixed dynamic range, then scale per kind.
	min, max := img.MinMax()
	span := max - min
	if span == 0 {
		span = 1
	}
	switch kind {
	case CIFARLike:
		// Normalized inputs roughly in [-2, 2].
		img.Apply(func(v float64) float64 { return ((v-min)/span - 0.5) * 4 })
	case ImageNetLike:
		// Mean-subtracted raw pixels in [-128, 127].
		img.Apply(func(v float64) float64 { return float64((v-min)/span*255) - 128 })
	}
	return img
}

// Labeled generates a (image, class) pair for the synthetic classification
// task used to train networks: the base image is stamped with a
// class-specific bump (a Gaussian at a class-dependent ring position in a
// class-dependent channel), giving a pattern that convolutional networks
// can learn but that is not linearly trivial. Labels cycle deterministically
// with the index.
func Labeled(kind Kind, size, classes, idx int) (*tensor.Tensor, int) {
	if classes < 2 {
		panic("dataset: Labeled needs at least 2 classes")
	}
	label := idx % classes
	img := Image(kind, size, idx)

	// Stamp geometry: class positions on a ring around the center.
	angle := 2 * math.Pi * float64(label) / float64(classes)
	cx := float64(float64(size)/2) + float64(float64(size)/4*math.Cos(angle))
	cy := float64(float64(size)/2) + float64(float64(size)/4*math.Sin(angle))
	sigma := float64(float64(size) / 16)
	ch := label % 3

	// Amplitude relative to the dataset's dynamic range.
	amp := 2.0
	if kind == ImageNetLike {
		amp = 120
	}
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			img.Data[img.Index(ch, y, x)] += float64(amp * math.Exp(-(float64(dx*dx)+float64(dy*dy))/(2*sigma*sigma)))
		}
	}
	return img, label
}
