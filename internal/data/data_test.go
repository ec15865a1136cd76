package data

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenImagesShapes(t *testing.T) {
	cfg := ImageConfig{TrainN: 100, TestN: 40, Size: 8, Channels: 3, Classes: 10, Noise: 1, Seed: 1}
	train, test := GenImages(cfg)
	if train.Len() != 100 || test.Len() != 40 {
		t.Fatalf("lengths %d/%d", train.Len(), test.Len())
	}
	wantShape := []int{3, 8, 8}
	for i, d := range wantShape {
		if train.SampleShape[i] != d {
			t.Fatalf("sample shape %v", train.SampleShape)
		}
	}
	if train.X.Size() != 100*3*8*8 {
		t.Errorf("train tensor size %d", train.X.Size())
	}
	for _, y := range train.Y {
		if y < 0 || y >= 10 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestGenImagesDeterministic(t *testing.T) {
	cfg := SmallImageConfig()
	cfg.TrainN, cfg.TestN = 50, 20
	a, _ := GenImages(cfg)
	b, _ := GenImages(cfg)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	cfg.Seed = 99
	c, _ := GenImages(cfg)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGenImagesClassesDiffer(t *testing.T) {
	// Samples of different classes must be farther apart (on average)
	// than samples of the same class: the signal the classifiers learn.
	cfg := ImageConfig{TrainN: 400, TestN: 10, Size: 8, Channels: 3, Classes: 4, Noise: 0.5, Seed: 3}
	train, _ := GenImages(cfg)
	sz := 3 * 8 * 8
	dist := func(i, j int) float64 {
		s := 0.0
		for k := 0; k < sz; k++ {
			d := train.X.Data[i*sz+k] - train.X.Data[j*sz+k]
			s += d * d
		}
		return s
	}
	var same, diff, nSame, nDiff float64
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if train.Y[i] == train.Y[j] {
				same += dist(i, j)
				nSame++
			} else {
				diff += dist(i, j)
				nDiff++
			}
		}
	}
	if nSame == 0 || nDiff == 0 {
		t.Skip("degenerate label draw")
	}
	if diff/nDiff <= same/nSame {
		t.Errorf("between-class distance %.3f not above within-class %.3f", diff/nDiff, same/nSame)
	}
}

func TestGenTextShapesAndNoiseSplit(t *testing.T) {
	cfg := TextConfig{TrainN: 60, TestN: 60, SeqLen: 3, EmbedDim: 5, Classes: 4, Noise: 0.1, TestNoise: 3.0, Seed: 5}
	train, test := GenText(cfg)
	if train.Len() != 60 || test.Len() != 60 {
		t.Fatalf("lengths %d/%d", train.Len(), test.Len())
	}
	// Test samples must be substantially noisier: compare mean squared
	// deviation magnitudes (train ≈ proto ± 0.1, test ≈ proto ± 3).
	varOf := func(d *Dataset) float64 {
		s := 0.0
		for _, v := range d.X.Data {
			s += v * v
		}
		return s / float64(len(d.X.Data))
	}
	if varOf(test) < varOf(train)*2 {
		t.Errorf("test noise split not visible: train var %.2f, test var %.2f", varOf(train), varOf(test))
	}
}

func TestGenTextDefaultTestNoise(t *testing.T) {
	cfg := TextConfig{TrainN: 30, TestN: 30, SeqLen: 2, EmbedDim: 4, Classes: 3, Noise: 1, Seed: 6}
	train, test := GenText(cfg)
	varOf := func(d *Dataset) float64 {
		s := 0.0
		for _, v := range d.X.Data {
			s += v * v
		}
		return s / float64(len(d.X.Data))
	}
	if r := varOf(test) / varOf(train); r < 0.6 || r > 1.6 {
		t.Errorf("TestNoise=0 should match train noise; variance ratio %.2f", r)
	}
}

func TestBatchGathers(t *testing.T) {
	cfg := ImageConfig{TrainN: 10, TestN: 2, Size: 2, Channels: 1, Classes: 2, Noise: 0.1, Seed: 7}
	train, _ := GenImages(cfg)
	x, y := train.Batch([]int{3, 7})
	if x.Dim(0) != 2 || len(y) != 2 {
		t.Fatalf("batch shape %v, labels %v", x.Shape(), y)
	}
	sz := 4
	for k := 0; k < sz; k++ {
		if x.Data[k] != train.X.Data[3*sz+k] {
			t.Fatal("batch row 0 does not match sample 3")
		}
		if x.Data[sz+k] != train.X.Data[7*sz+k] {
			t.Fatal("batch row 1 does not match sample 7")
		}
	}
	if y[0] != train.Y[3] || y[1] != train.Y[7] {
		t.Error("batch labels wrong")
	}
}

func TestBatchOutOfRangePanics(t *testing.T) {
	cfg := ImageConfig{TrainN: 4, TestN: 2, Size: 2, Channels: 1, Classes: 2, Noise: 0.1, Seed: 8}
	train, _ := GenImages(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range batch index did not panic")
		}
	}()
	train.Batch([]int{4})
}

func TestPartitionCoversAll(t *testing.T) {
	cfg := ImageConfig{TrainN: 103, TestN: 2, Size: 2, Channels: 1, Classes: 3, Noise: 0.1, Seed: 9}
	train, _ := GenImages(cfg)
	for _, p := range []int{1, 2, 3, 8, 16} {
		shards := train.Partition(p)
		total := 0
		for _, s := range shards {
			total += s.Len()
		}
		if total != train.Len() {
			t.Errorf("p=%d: shards cover %d of %d samples", p, total, train.Len())
		}
		// Shard sizes within 1 of each other.
		min, max := shards[0].Len(), shards[0].Len()
		for _, s := range shards {
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
		}
		if max-min > 1 {
			t.Errorf("p=%d: unbalanced shards (%d..%d)", p, min, max)
		}
	}
}

// TestPartitionAliasesParent: shards are capacity-capped views that
// tile the parent in order, so partitioning copies no samples.
func TestPartitionAliasesParent(t *testing.T) {
	cfg := ImageConfig{TrainN: 103, TestN: 2, Size: 2, Channels: 1, Classes: 3, Noise: 0.1, Seed: 9}
	train, _ := GenImages(cfg)
	sz := train.sampleSize()
	for _, p := range []int{1, 2, 3, 8} {
		lo := 0
		for i, s := range train.Partition(p) {
			n := s.Len()
			if &s.X.Data[0] != &train.X.Data[lo*sz] || &s.Y[0] != &train.Y[lo] {
				t.Fatalf("p=%d shard %d does not alias parent samples from %d", p, i, lo)
			}
			if cap(s.X.Data) != n*sz || cap(s.Y) != n {
				t.Errorf("p=%d shard %d: capacity %d/%d, want capped at %d/%d", p, i, cap(s.X.Data), cap(s.Y), n*sz, n)
			}
			if got := s.X.Shape(); got[0] != n || len(got) != 1+len(train.SampleShape) {
				t.Errorf("p=%d shard %d: shape %v", p, i, got)
			}
			lo += n
		}
		if lo != train.Len() {
			t.Errorf("p=%d: shards cover %d of %d samples", p, lo, train.Len())
		}
	}
}

func TestEpochSamplerCoversEachEpoch(t *testing.T) {
	s := NewEpochSampler(10, 3, 1)
	if s.BatchesPerEpoch() != 4 {
		t.Fatalf("BatchesPerEpoch = %d, want 4", s.BatchesPerEpoch())
	}
	for epoch := 0; epoch < 3; epoch++ {
		seen := map[int]bool{}
		for b := 0; b < 4; b++ {
			for _, i := range s.Next() {
				if seen[i] {
					t.Fatalf("epoch %d: index %d repeated", epoch, i)
				}
				seen[i] = true
			}
		}
		if len(seen) != 10 {
			t.Fatalf("epoch %d covered %d of 10 samples", epoch, len(seen))
		}
	}
	if s.Epoch != 2 {
		t.Errorf("Epoch counter = %d, want 2 completed wraps", s.Epoch)
	}
}

func TestEpochSamplerShufflesBetweenEpochs(t *testing.T) {
	s := NewEpochSampler(64, 64, 42)
	first := append([]int(nil), s.Next()...)
	second := append([]int(nil), s.Next()...)
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive epochs used identical order")
	}
}

func TestEpochSamplerBatchClamp(t *testing.T) {
	s := NewEpochSampler(5, 100, 1)
	if got := len(s.Next()); got != 5 {
		t.Errorf("oversized batch returned %d indices, want 5", got)
	}
}

func TestUniformSampler(t *testing.T) {
	s := NewUniformSampler(20, 7, 3)
	counts := make([]int, 20)
	for i := 0; i < 400; i++ {
		for _, idx := range s.Next() {
			if idx < 0 || idx >= 20 {
				t.Fatalf("index %d out of range", idx)
			}
			counts[idx]++
		}
	}
	// Roughly uniform: every index hit at least once in 2800 draws.
	for i, c := range counts {
		if c == 0 {
			t.Errorf("index %d never drawn", i)
		}
	}
}

// Property: Slice(a,b) preserves labels and sample data.
func TestSliceProperty(t *testing.T) {
	cfg := ImageConfig{TrainN: 50, TestN: 2, Size: 2, Channels: 1, Classes: 5, Noise: 0.3, Seed: 11}
	train, _ := GenImages(cfg)
	f := func(seed int64) bool {
		lo := int(seed%25 + 25)
		if lo < 0 {
			lo = -lo % 25
		}
		hi := lo + 10
		if hi > train.Len() {
			return true
		}
		s := train.Slice(lo, hi)
		if s.Len() != hi-lo {
			return false
		}
		sz := 4
		for i := 0; i < s.Len(); i++ {
			if s.Y[i] != train.Y[lo+i] {
				return false
			}
			for k := 0; k < sz; k++ {
				if math.Abs(s.X.Data[i*sz+k]-train.X.Data[(lo+i)*sz+k]) > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"image classes": func() { GenImages(ImageConfig{TrainN: 1, TestN: 1, Size: 2, Channels: 1, Classes: 1, Seed: 1}) },
		"text seqlen":   func() { GenText(TextConfig{TrainN: 1, TestN: 1, SeqLen: 0, EmbedDim: 2, Classes: 2, Seed: 1}) },
		"partition":     func() { (&Dataset{}).Partition(0) },
		"sampler":       func() { NewEpochSampler(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
