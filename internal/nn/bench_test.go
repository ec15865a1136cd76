package nn

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// benchWorkers selects the worker counts the convolution sweep runs at,
// e.g. go test -bench Conv2DForward ./internal/nn -workers 1,2,4,8
// (the package path must precede -workers: go test stops reading
// package arguments at the first flag it does not recognise itself).
var benchWorkers = flag.String("workers", "1,2,4,8", "comma-separated worker counts for kernel benchmark sweeps")

func workerCounts(b *testing.B) []int {
	b.Helper()
	var ws []int
	for _, f := range strings.Split(*benchWorkers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			b.Fatalf("bad -workers entry %q", f)
		}
		ws = append(ws, w)
	}
	return ws
}

func benchInput(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillRandn(rand.New(rand.NewSource(7)), 0, 1)
	return x
}

// BenchmarkConv2DForward sweeps the Table-I first conv layer across
// batch sizes (batch 1 exercises the row-parallel GEMM path, batch 8 the
// sample-sharded path) and worker counts.
func BenchmarkConv2DForward(b *testing.B) {
	for _, batch := range []int{1, 8} {
		l := NewConv2D(rand.New(rand.NewSource(1)), 3, 64, 5, 5)
		x := benchInput(batch, 3, 32, 32)
		for _, w := range workerCounts(b) {
			b.Run(fmt.Sprintf("b%d/w%d", batch, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Forward(x, true)
				}
			})
		}
	}
}

// TestConv2DForwardSteadyStateAllocs pins the per-batch allocation
// behaviour: after the first call sizes the retained column buffers, a
// Forward pass allocates only the output tensor and the worker-pool call
// frame, regardless of batch size.
func TestConv2DForwardSteadyStateAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	l := NewConv2D(rand.New(rand.NewSource(1)), 3, 16, 5, 5)
	x := benchInput(8, 3, 16, 16)
	l.Forward(x, true) // size the retained per-sample column buffers
	allocs := testing.AllocsPerRun(20, func() { l.Forward(x, true) })
	if allocs > 16 {
		t.Errorf("steady-state Conv2D.Forward allocates %.0f objects/op, want <= 16 (column scratch must be reused)", allocs)
	}
}

// TestConv2DBackwardSteadyStateAllocs asserts Backward, and the
// params-only backward a network's first layer runs, reuse pooled
// column-gradient scratch rather than allocating one per sample or per
// shard. The bounds are what a plain build measures; a -race build
// allocates inside its instrumentation and drops sync.Pool puts at
// random, so it keeps the looser bound.
func TestConv2DBackwardSteadyStateAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	l := NewConv2D(rand.New(rand.NewSource(1)), 3, 16, 5, 5)
	x := benchInput(8, 3, 16, 16)
	g := benchInput(l.Forward(x, true).Shape()...)
	l.Backward(g)
	for _, c := range []struct {
		name     string
		bound    float64
		backward func()
	}{
		{"Backward", 17, func() { l.Backward(g) }},
		{"params-only backward", 13, func() { l.backward(g, false) }},
	} {
		bound := c.bound
		if raceEnabled {
			bound = 40
		}
		allocs := testing.AllocsPerRun(20, func() {
			l.Forward(x, true)
			c.backward()
		})
		if allocs > bound {
			t.Errorf("steady-state Conv2D Forward+%s allocates %.0f objects/op, want <= %.0f", c.name, allocs, bound)
		}
	}
}

// BenchmarkConv2DBackward sweeps one Forward+Backward step of the
// Table-I first conv layer over the same batch sizes and worker counts
// as BenchmarkConv2DForward.
func BenchmarkConv2DBackward(b *testing.B) {
	for _, batch := range []int{1, 8} {
		l := NewConv2D(rand.New(rand.NewSource(1)), 3, 64, 5, 5)
		x := benchInput(batch, 3, 32, 32)
		g := benchInput(l.Forward(x, true).Shape()...)
		for _, w := range workerCounts(b) {
			b.Run(fmt.Sprintf("b%d/w%d", batch, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Forward(x, true)
					l.Backward(g)
				}
			})
		}
	}
}

func BenchmarkLinearForward(b *testing.B) {
	l := NewLinear(rand.New(rand.NewSource(1)), 1000, 1000)
	x := benchInput(16, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

func BenchmarkTemporalConvForward(b *testing.B) {
	l := NewTemporalConv(rand.New(rand.NewSource(1)), 200, 1000, 2)
	x := benchInput(1, 3, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	crit := NewSoftmaxCrossEntropy()
	logits := benchInput(64, 311)
	labels := make([]int, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crit.Loss(logits, labels)
		crit.Backward()
	}
}

func BenchmarkDropoutForward(b *testing.B) {
	l := NewDropout(rand.New(rand.NewSource(1)), 0.5)
	x := benchInput(64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}
