package campaign

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/network"
	"repro/internal/tensor"
)

// TestGoldenDiskRoundTrip pins the file format: an execution written and
// re-read is bit-identical, including negative zeros, NaN payload bits and
// denormals.
func TestGoldenDiskRoundTrip(t *testing.T) {
	in := tensor.New(tensor.Shape{C: 1, H: 2, W: 2})
	in.Data = []float64{1.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000042), 5e-324}
	act := tensor.New(tensor.Shape{C: 2, H: 1, W: 1})
	act.Data = []float64{-3.25, math.Inf(1)}
	exec := &network.Execution{Input: in, Acts: []*tensor.Tensor{act}}

	path := filepath.Join(t.TempDir(), "x.golden")
	if err := writeGoldenFile(path, exec); err != nil {
		t.Fatal(err)
	}
	back, ok := readGoldenFile(path)
	if !ok {
		t.Fatal("round trip failed to load")
	}
	if back.Input.Shape != in.Shape || len(back.Acts) != 1 || back.Acts[0].Shape != act.Shape {
		t.Fatalf("shapes diverged: %+v", back)
	}
	for i, v := range in.Data {
		if math.Float64bits(back.Input.Data[i]) != math.Float64bits(v) {
			t.Fatalf("input element %d not bit-exact", i)
		}
	}
	for i, v := range act.Data {
		if math.Float64bits(back.Acts[0].Data[i]) != math.Float64bits(v) {
			t.Fatalf("act element %d not bit-exact", i)
		}
	}
}

// TestGoldenDiskCorruptTolerated is the resilience contract: any corrupt,
// truncated or foreign cache file reads as a miss — never an error, never
// garbage data.
func TestGoldenDiskCorruptTolerated(t *testing.T) {
	dir := t.TempDir()
	in := tensor.New(tensor.Shape{C: 1, H: 1, W: 3})
	in.Data = []float64{1, 2, 3}
	exec := &network.Execution{Input: in}
	path := filepath.Join(dir, "x.golden")
	if err := writeGoldenFile(path, exec); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:4],
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"bad version": append(append([]byte(goldenMagic), 99), good[5:]...),
		"truncated":   good[:len(good)-8],
		"trailing":    append(append([]byte{}, good...), 0xEE),
	}
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 0xFF // payload bit flip breaks the CRC
	cases["bit flip"] = flipped
	for name, data := range cases {
		p := filepath.Join(dir, "c.golden")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := readGoldenFile(p); ok {
			t.Fatalf("%s: corrupt golden file loaded", name)
		}
	}
	if _, ok := readGoldenFile(filepath.Join(dir, "missing.golden")); ok {
		t.Fatal("missing golden file loaded")
	}
}

// TestGoldenCacheDiskPersistence runs the same campaign through three
// cache generations sharing one directory: the first computes and
// persists, the second loads every golden from disk, and the third — after
// the files are corrupted — silently recomputes and heals the cache. All
// three reports must be bit-identical.
func TestGoldenCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("FLOAT16")

	g1 := NewGoldenCache()
	g1.Persist(dir)
	first, err := solo(spec, g1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, written := g1.DiskStats(); loaded != 0 || written != spec.Inputs {
		t.Fatalf("cold cache: loaded=%d written=%d, want 0/%d", loaded, written, spec.Inputs)
	}

	g2 := NewGoldenCache()
	g2.Persist(dir)
	second, err := solo(spec, g2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, written := g2.DiskStats(); loaded != spec.Inputs || written != 0 {
		t.Fatalf("warm cache: loaded=%d written=%d, want %d/0", loaded, written, spec.Inputs)
	}
	assertBitIdentical(t, "disk-loaded goldens", second, first)

	files, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil || len(files) != spec.Inputs {
		t.Fatalf("cache holds %d files (%v), want %d", len(files), err, spec.Inputs)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	g3 := NewGoldenCache()
	g3.Persist(dir)
	third, err := solo(spec, g3)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, written := g3.DiskStats(); loaded != 0 || written != spec.Inputs {
		t.Fatalf("corrupted cache: loaded=%d written=%d, want 0/%d (recompute + heal)", loaded, written, spec.Inputs)
	}
	assertBitIdentical(t, "healed goldens", third, first)

	// And the healed files load again.
	g4 := NewGoldenCache()
	g4.Persist(dir)
	if _, err := solo(spec, g4); err != nil {
		t.Fatal(err)
	}
	if loaded, _ := g4.DiskStats(); loaded != spec.Inputs {
		t.Fatalf("healed cache not reloaded: loaded=%d want %d", loaded, spec.Inputs)
	}
}
