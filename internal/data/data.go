// Package data provides the two training workloads the paper evaluates
// on, as deterministic synthetic stand-ins (see DESIGN.md §2): an image
// classification set with the tensor shape and class structure of
// CIFAR-10, and a sentence-classification set with the shape of the
// proprietary NLC-F finance dataset (word2vec-style embeddings, 311
// labels). Both are class-conditional pattern-plus-noise generators, so
// difficulty is controlled by a single noise parameter and every
// experiment is reproducible from a seed.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"sasgd/internal/tensor"
)

// Dataset is a fixed collection of labelled samples held as one tensor
// whose leading dimension indexes samples.
type Dataset struct {
	X           *tensor.Tensor // (N, sample...) all samples
	Y           []int          // len N labels
	SampleShape []int          // per-sample shape
	Classes     int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// sampleSize returns the element count of one sample.
func (d *Dataset) sampleSize() int {
	n := 1
	for _, s := range d.SampleShape {
		n *= s
	}
	return n
}

// Batch gathers the samples at the given indices into a fresh minibatch
// tensor and label slice.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	sz := d.sampleSize()
	shape := append([]int{len(indices)}, d.SampleShape...)
	x := tensor.New(shape...)
	y := make([]int, len(indices))
	for bi, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("data: batch index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(x.Data[bi*sz:(bi+1)*sz], d.X.Data[idx*sz:(idx+1)*sz])
		y[bi] = d.Y[idx]
	}
	return x, y
}

// Slice returns samples [lo, hi) as a view: its X and Y share the
// parent's backing arrays, capacity-capped at hi so an append on the
// view can never reach the parent's later samples. Datasets are
// read-only once generated — training gathers minibatches with Batch
// (a copy), and evaluation forwards views straight into the first
// layer, which only reads its input — so views are safe to share
// between learners and with the parent.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	if lo < 0 || hi > d.Len() || lo > hi {
		panic(fmt.Sprintf("data: Slice(%d, %d) out of range for %d samples", lo, hi, d.Len()))
	}
	sz := d.sampleSize()
	shape := append([]int{hi - lo}, d.SampleShape...)
	x := tensor.FromSlice(d.X.Data[lo*sz:hi*sz:hi*sz], shape...)
	return &Dataset{X: x, Y: d.Y[lo:hi:hi], SampleShape: d.SampleShape, Classes: d.Classes}
}

// Partition splits the dataset into p nearly equal contiguous shards
// (the standard data-parallel assignment: learner i trains on shard i).
// The shards are Slice views of the parent, so partitioning copies no
// samples and the same read-only contract applies.
func (d *Dataset) Partition(p int) []*Dataset {
	if p <= 0 {
		panic(fmt.Sprintf("data: Partition(%d): shard count must be positive", p))
	}
	shards := make([]*Dataset, p)
	n := d.Len()
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		shards[i] = d.Slice(lo, hi)
	}
	return shards
}

// ImageConfig parameterizes the synthetic CIFAR-10 stand-in.
type ImageConfig struct {
	TrainN   int     // paper: 50000
	TestN    int     // paper: 10000
	Size     int     // square image side (paper: 32)
	Channels int     // paper: 3
	Classes  int     // paper: 10
	Noise    float64 // additive Gaussian noise std; controls difficulty
	Seed     int64
}

// SmallImageConfig returns the reduced-scale image workload used by the
// fast experiment suite: the same class structure as CIFAR-10 with sample
// counts and resolution shrunk so distributed runs finish in seconds.
func SmallImageConfig() ImageConfig {
	return ImageConfig{TrainN: 8192, TestN: 1024, Size: 8, Channels: 3, Classes: 10, Noise: 2.2, Seed: 1}
}

// PaperImageConfig records the paper-scale shape of CIFAR-10.
func PaperImageConfig() ImageConfig {
	return ImageConfig{TrainN: 50000, TestN: 10000, Size: 32, Channels: 3, Classes: 10, Noise: 1.0, Seed: 1}
}

// GenImages generates a train/test pair of synthetic image datasets.
// Each class has a smooth per-class spatial pattern (random low-frequency
// sinusoid mixtures); a sample is its class pattern plus i.i.d. Gaussian
// noise. The Bayes-optimal classifier is well above chance but the noise
// keeps learning gradual, which is what the convergence figures need.
func GenImages(cfg ImageConfig) (train, test *Dataset) {
	if cfg.Classes <= 1 || cfg.Size <= 0 || cfg.Channels <= 0 {
		panic(fmt.Sprintf("data: invalid ImageConfig %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([]*tensor.Tensor, cfg.Classes)
	for k := range protos {
		protos[k] = imageProto(rng, cfg.Channels, cfg.Size)
	}
	gen := func(n int, rng *rand.Rand) *Dataset {
		d := &Dataset{
			X:           tensor.New(n, cfg.Channels, cfg.Size, cfg.Size),
			Y:           make([]int, n),
			SampleShape: []int{cfg.Channels, cfg.Size, cfg.Size},
			Classes:     cfg.Classes,
		}
		sz := cfg.Channels * cfg.Size * cfg.Size
		for i := 0; i < n; i++ {
			k := rng.Intn(cfg.Classes)
			d.Y[i] = k
			dst := d.X.Data[i*sz : (i+1)*sz]
			for j, v := range protos[k].Data {
				dst[j] = v + rng.NormFloat64()*cfg.Noise
			}
		}
		return d
	}
	train = gen(cfg.TrainN, rand.New(rand.NewSource(cfg.Seed+1)))
	test = gen(cfg.TestN, rand.New(rand.NewSource(cfg.Seed+2)))
	return train, test
}

// imageProto builds one class's base pattern: a sum of three random
// low-frequency plane waves per channel, normalized to unit variance.
func imageProto(rng *rand.Rand, c, size int) *tensor.Tensor {
	t := tensor.New(c, size, size)
	for ch := 0; ch < c; ch++ {
		type wave struct{ fx, fy, ph, amp float64 }
		waves := make([]wave, 3)
		for i := range waves {
			waves[i] = wave{
				fx:  (rng.Float64()*2 - 1) * 2,
				fy:  (rng.Float64()*2 - 1) * 2,
				ph:  rng.Float64() * 2 * math.Pi,
				amp: 0.5 + rng.Float64(),
			}
		}
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				v := 0.0
				for _, w := range waves {
					v += w.amp * math.Sin(2*math.Pi*(w.fx*float64(x)+w.fy*float64(y))/float64(size)+w.ph)
				}
				t.Set(v, ch, y, x)
			}
		}
	}
	// normalize to zero mean, unit variance per prototype
	mean := t.Mean()
	variance := 0.0
	for _, v := range t.Data {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(t.Size())
	inv := 1.0
	if variance > 0 {
		inv = 1 / math.Sqrt(variance)
	}
	for i := range t.Data {
		t.Data[i] = (t.Data[i] - mean) * inv
	}
	return t
}

// TextConfig parameterizes the synthetic NLC-F stand-in.
type TextConfig struct {
	TrainN   int     // paper: 2500
	TestN    int     // held-out split (the paper reports test accuracy)
	SeqLen   int     // words per sentence
	EmbedDim int     // word2vec width (paper: 100)
	Classes  int     // paper: 311
	Noise    float64 // per-dimension Gaussian noise std on training samples
	// TestNoise is the noise std on test samples (0 selects Noise).
	// Setting it above Noise produces the regime the paper reports for
	// NLC-F: training accuracy approaches 100% while test accuracy is
	// capped well below (≈60%), because test sentences are harder than
	// the small training set.
	TestNoise float64
	Seed      int64
}

// SmallTextConfig returns the reduced-scale text workload, calibrated so
// a well-trained model reaches ≈100% train / ≈60% test accuracy, the
// ceilings the paper reports for NLC-F.
func SmallTextConfig() TextConfig {
	return TextConfig{TrainN: 2500, TestN: 500, SeqLen: 3, EmbedDim: 16, Classes: 12, Noise: 1.0, TestNoise: 2.4, Seed: 2}
}

// PaperTextConfig records the paper-scale shape of NLC-F.
func PaperTextConfig() TextConfig {
	return TextConfig{TrainN: 2500, TestN: 500, SeqLen: 3, EmbedDim: 100, Classes: 311, Noise: 1.0, TestNoise: 2.7, Seed: 2}
}

// GenText generates a train/test pair of synthetic sentence datasets.
// Each class has a prototype sequence of embedding vectors; a sample is
// the prototype with additive noise. The paper reports ≈60% ceiling test
// accuracy on NLC-F; the default noise level reproduces a similar
// well-below-100% ceiling.
func GenText(cfg TextConfig) (train, test *Dataset) {
	if cfg.Classes <= 1 || cfg.SeqLen <= 0 || cfg.EmbedDim <= 0 {
		panic(fmt.Sprintf("data: invalid TextConfig %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([][]float64, cfg.Classes)
	sz := cfg.SeqLen * cfg.EmbedDim
	for k := range protos {
		p := make([]float64, sz)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		protos[k] = p
	}
	gen := func(n int, noise float64, rng *rand.Rand) *Dataset {
		d := &Dataset{
			X:           tensor.New(n, cfg.SeqLen, cfg.EmbedDim),
			Y:           make([]int, n),
			SampleShape: []int{cfg.SeqLen, cfg.EmbedDim},
			Classes:     cfg.Classes,
		}
		for i := 0; i < n; i++ {
			k := rng.Intn(cfg.Classes)
			d.Y[i] = k
			dst := d.X.Data[i*sz : (i+1)*sz]
			for j, v := range protos[k] {
				dst[j] = v + rng.NormFloat64()*noise
			}
		}
		return d
	}
	testNoise := cfg.TestNoise
	if testNoise == 0 {
		testNoise = cfg.Noise
	}
	train = gen(cfg.TrainN, cfg.Noise, rand.New(rand.NewSource(cfg.Seed+1)))
	test = gen(cfg.TestN, testNoise, rand.New(rand.NewSource(cfg.Seed+2)))
	return train, test
}
