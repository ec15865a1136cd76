package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// convAtWorkers runs one Forward+Backward of a fresh, identically-seeded
// Conv2D at the given worker budget and returns the four outputs that
// must be bitwise-stable: forward activations, input gradient, weight
// gradient, and bias gradient.
func convAtWorkers(t *testing.T, workers, batch, inC, outC, size, kernel int) (out, gin, dw, db []float64) {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	l := NewConv2D(rand.New(rand.NewSource(42)), inC, outC, kernel, kernel)
	x := tensor.New(batch, inC, size, size)
	x.FillRandn(rand.New(rand.NewSource(43)), 0, 1)
	y := l.Forward(x, true)
	g := tensor.New(y.Shape()...)
	g.FillRandn(rand.New(rand.NewSource(44)), 0, 1)
	in := l.Backward(g)
	cp := func(v *tensor.Tensor) []float64 { return append([]float64(nil), v.Data...) }
	return cp(y), cp(in), cp(l.w.Grad), cp(l.b.Grad)
}

func TestConv2DBitwiseAcrossWorkers(t *testing.T) {
	// Batch 1 exercises the row-parallel GEMM path, larger batches the
	// sample-sharded path; odd batch sizes leave uneven shards.
	cases := []struct{ batch, inC, outC, size, kernel int }{
		{1, 3, 8, 12, 5},
		{2, 3, 8, 12, 5},
		{3, 2, 5, 9, 3},
		{7, 3, 4, 8, 3},
		{8, 1, 1, 6, 3},
	}
	for _, c := range cases {
		label := fmt.Sprintf("batch=%d %dx%d k=%d", c.batch, c.inC, c.outC, c.kernel)
		refOut, refGin, refDw, refDb := convAtWorkers(t, 1, c.batch, c.inC, c.outC, c.size, c.kernel)
		for w := 2; w <= 8; w++ {
			out, gin, dw, db := convAtWorkers(t, w, c.batch, c.inC, c.outC, c.size, c.kernel)
			for name, pair := range map[string][2][]float64{
				"forward": {refOut, out},
				"gradIn":  {refGin, gin},
				"dW":      {refDw, dw},
				"db":      {refDb, db},
			} {
				for i := range pair[0] {
					if pair[0][i] != pair[1][i] {
						t.Fatalf("%s workers=%d: %s differs at %d: %x vs %x",
							label, w, name, i, pair[1][i], pair[0][i])
					}
				}
			}
		}
	}
}

func TestActivationsBitwiseAcrossWorkers(t *testing.T) {
	x := tensor.New(4, 3000)
	x.FillRandn(rand.New(rand.NewSource(9)), 0, 2)
	g := tensor.New(4, 3000)
	g.FillRandn(rand.New(rand.NewSource(10)), 0, 1)
	run := func(layer Layer, workers int) ([]float64, []float64) {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		y := layer.Forward(x, true)
		in := layer.Backward(g)
		return append([]float64(nil), y.Data...), append([]float64(nil), in.Data...)
	}
	for _, mk := range []func() Layer{
		func() Layer { return NewReLU() },
		func() Layer { return NewTanh() },
	} {
		name := mk().Name()
		refY, refIn := run(mk(), 1)
		for w := 2; w <= 8; w++ {
			y, in := run(mk(), w)
			for i := range refY {
				if y[i] != refY[i] || in[i] != refIn[i] {
					t.Fatalf("%s workers=%d differs at %d", name, w, i)
				}
			}
		}
	}
}

// TestConv2DParallelMatchesSeedSerial pins the parallel layer to an
// independent, straightforward serial reference (direct convolution), so
// the bitwise tests above cannot all drift together.
func TestConv2DParallelMatchesSeedSerial(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	l := NewConv2D(rand.New(rand.NewSource(3)), 2, 3, 3, 3)
	batch, size := 4, 7
	x := tensor.New(batch, 2, size, size)
	x.FillRandn(rand.New(rand.NewSource(4)), 0, 1)
	y := l.Forward(x, true)
	oh := size - 2
	for i := 0; i < batch; i++ {
		for k := 0; k < 3; k++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < oh; ox++ {
					want := l.b.Value.Data[k]
					for c := 0; c < 2; c++ {
						for ky := 0; ky < 3; ky++ {
							for kx := 0; kx < 3; kx++ {
								want += l.w.Value.At(k, c, ky, kx) * x.At(i, c, oy+ky, ox+kx)
							}
						}
					}
					got := y.At(i, k, oy, ox)
					if diff := got - want; diff > 1e-9 || diff < -1e-9 {
						t.Fatalf("direct conv mismatch at (%d,%d,%d,%d): %g vs %g", i, k, oy, ox, got, want)
					}
				}
			}
		}
	}
}

// TestFirstLayerParamsOnlyBitwise pins the network's params-only
// first-layer backward (no input gradient) against the full
// Layer.Backward: every gradient the network leaves in GradData,
// including the first layer's, must be bitwise identical. It covers each
// layer type that implements the skip as layer 0, at one and two
// workers, with batch sizes below and above the worker count (Conv2D's
// two per-sample branches). Conv2D's weight gradient is also pinned to
// a direct loop in the serial order: each sample's dot formed from 0 in
// ascending output-pixel order, then added in sample order.
func TestFirstLayerParamsOnlyBitwise(t *testing.T) {
	nets := []struct {
		name  string
		build func(rng *rand.Rand) *Network
	}{
		{"Conv2D", func(rng *rand.Rand) *Network {
			return NewNetwork([]int{3, 8, 8},
				NewConv2D(rng, 3, 5, 3, 3), NewReLU(), NewFlatten(), NewLinear(rng, 5*6*6, 4))
		}},
		{"TemporalConv", func(rng *rand.Rand) *Network {
			return NewNetwork([]int{4, 6},
				NewTemporalConv(rng, 6, 5, 2), NewTanh(), NewFlatten(), NewLinear(rng, 3*5, 4))
		}},
		{"Linear", func(rng *rand.Rand) *Network {
			return NewNetwork([]int{7}, NewLinear(rng, 7, 6), NewTanh(), NewLinear(rng, 6, 4))
		}},
	}
	for _, nc := range nets {
		for _, workers := range []int{1, 2} {
			for _, batch := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/w%d/b%d", nc.name, workers, batch), func(t *testing.T) {
					defer parallel.SetWorkers(parallel.SetWorkers(workers))
					net := nc.build(rand.New(rand.NewSource(5)))
					if _, ok := net.Layers()[0].(paramsBackward); !ok {
						t.Fatalf("%s does not implement paramsBackward", net.Layers()[0].Name())
					}
					x := tensor.New(append([]int{batch}, net.InShape()...)...)
					x.FillRandn(rand.New(rand.NewSource(6)), 0, 1)
					labels := make([]int, batch)
					for i := range labels {
						labels[i] = i % 4
					}

					net.Step(x, labels)
					got := append([]float64(nil), net.GradData()...)

					// Reference: the same pass with every layer, the first
					// included, running its public Backward.
					net.Loss(net.Forward(x, true), labels)
					grad := net.criteria.Backward()
					var grad0 *tensor.Tensor
					for i := len(net.Layers()) - 1; i >= 0; i-- {
						grad0 = grad
						grad = net.Layers()[i].Backward(grad)
					}
					if grad == nil {
						t.Fatal("Layer.Backward returned no input gradient")
					}
					for i, w := range net.GradData() {
						if math.Float64bits(got[i]) != math.Float64bits(w) {
							t.Fatalf("grad[%d]: params-only %v, Layer.Backward %v", i, got[i], w)
						}
					}
					if c, ok := net.Layers()[0].(*Conv2D); ok {
						for i, w := range directConvWeightGrad(c, x, grad0) {
							if math.Float64bits(got[i]) != math.Float64bits(w) {
								t.Fatalf("dW[%d]: params-only %v, direct loop %v", i, got[i], w)
							}
						}
					}
				})
			}
		}
	}
}

// directConvWeightGrad is the serial reference for a stride-1 Conv2D's
// weight gradient: dW[k][c][ky][kx] accumulates, in sample order, each
// sample's Σ over output pixels (oy, ox) of gout·x, formed from 0 in
// ascending pixel order.
func directConvWeightGrad(c *Conv2D, x, gout *tensor.Tensor) []float64 {
	n, oh, ow := gout.Dim(0), gout.Dim(2), gout.Dim(3)
	dw := make([]float64, c.OutC*c.InC*c.Geom.KH*c.Geom.KW)
	for i := 0; i < n; i++ {
		idx := 0
		for k := 0; k < c.OutC; k++ {
			for ci := 0; ci < c.InC; ci++ {
				for ky := 0; ky < c.Geom.KH; ky++ {
					for kx := 0; kx < c.Geom.KW; kx++ {
						s := 0.0
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								s += gout.At(i, k, oy, ox) * x.At(i, ci, oy+ky, ox+kx)
							}
						}
						dw[idx] += s
						idx++
					}
				}
			}
		}
	}
	return dw
}
