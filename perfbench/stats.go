package main

import (
	"sort"

	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/tensor"
)

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of v (0 for an
// empty slice).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q/100*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// evalBatch matches the trainer's evaluation minibatch.
const evalBatch = 256

// forEvalBatches walks ds in order in minibatches of evalBatch, the way
// the trainer's accuracy evaluation does.
func forEvalBatches(ds *data.Dataset, fn func(x *tensor.Tensor, y []int)) {
	idx := make([]int, 0, evalBatch)
	for lo := 0; lo < ds.Len(); lo += evalBatch {
		idx = idx[:0]
		for i := lo; i < lo+evalBatch && i < ds.Len(); i++ {
			idx = append(idx, i)
		}
		fn(ds.Batch(idx))
	}
}

// testLoss is the mean softmax cross-entropy of params on the problem's
// test set, evaluated in inference mode on a fresh replica.
func testLoss(prob *core.Problem, params []float64) float64 {
	net := prob.Model(1)
	net.SetParamData(params)
	var sum float64
	forEvalBatches(prob.Test, func(x *tensor.Tensor, y []int) {
		sum += net.Loss(net.Forward(x, false), y) * float64(len(y))
	})
	return sum / float64(prob.Test.Len())
}
