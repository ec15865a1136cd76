package core

import (
	"sasgd/internal/comm"
	"sasgd/internal/model"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// Backward-overlapped aggregation (Config.OverlapComm), a bucket-launch
// policy of the schedEngine on flat eager boundaries. Without it the
// loop pays the full O(m log p) allreduce after the boundary batch's
// backward pass has completely finished; but backprop finalizes layer
// gradients in reverse order, so the tail of the flat gradient buffer is
// final while the early convolutions are still running. On the boundary
// batch the engine hooks nn.StepEach's per-layer callback to accumulate
// each finalized bucket into gs and hand it to the bucketed worker
// immediately; the boundary then only waits on the handles before
// applying γp. Values are bitwise identical to the serial boundary for
// the tree family: bucket boundaries are fixed layer boundaries,
// per-bucket accumulation is the same elementwise gs += g, and the
// bucketed tree replays the monolithic tree's per-element summation
// order (pinned in comm and again at core level in overlap_test.go).
// The boundary batch still takes its local step x ← x − γ·g, so the
// replica a T-scheduler's drift statistic reads is the serial one.
// Under the fabric simulation each bucket's send is stamped with its
// layers' backward-completion time — start + dt·fraction from
// model.BackwardDoneFractions — which is what makes the overlap show up
// in simulated epoch time.

// initOverlap sets up the engine's overlap tables for net: the bucket
// each layer's backward completion finalizes and, under the simulation,
// when in the batch that happens.
func (e *schedEngine) initOverlap(net *nn.Network, minLayer []int) {
	e.overlap = true
	e.grads = net.GradData()
	e.bucketAt = make([]int, len(net.Layers()))
	for i := range e.bucketAt {
		e.bucketAt[i] = -1
	}
	for b, l := range minLayer {
		e.bucketAt[l] = b
	}
	if e.cfg.Sim != nil {
		e.fracs = model.BackwardDoneFractions(net)
	}
}

// stepOverlapped runs the boundary batch with the bucket hooks attached.
// The batch's simulated span is drawn up front (the same single jitter
// draw per batch as ChargeBatch, so the streams stay identical) and the
// clock jumps to the batch's end before any bucket launches; each
// bucket's send is then stamped analytically inside the span.
func (e *schedEngine) stepOverlapped(net *nn.Network, x *tensor.Tensor, y []int, flops float64) float64 {
	e.start, e.dt = 0, 0
	if e.cfg.Sim != nil {
		e.start, e.dt = e.cfg.Sim.BatchSpan(e.rank, flops)
	}
	return net.StepEach(x, y, e.onLayerDone)
}

// onLayerDone is the nn.BackwardEach hook for the boundary batch: when
// layer's completion finalizes a bucket, fold its gradient segment into
// gs (elementwise, so gs ends bitwise equal to the serial whole-vector
// accumulation) and launch its collective, stamped with the layer's
// backward-completion time.
func (e *schedEngine) onLayerDone(layer int) {
	bi := e.bucketAt[layer]
	if bi < 0 {
		return
	}
	bs := e.tk.Begin()
	s := e.segs[bi]
	tensor.Axpy(1, e.grads[s.Off:s.Off+s.Len], e.gs[s.Off:s.Off+s.Len])
	ready := 0.0
	if e.fracs != nil {
		ready = e.start + e.dt*e.fracs[layer]
	}
	e.launchBucket(bi, e.gs, ready)
	e.tk.EndArg(obs.PhaseBucketBegin, int32(bi), bs)
}

// planBuckets groups the network's per-layer segments into at most n
// contiguous, word-balanced buckets (n ≤ 0 or n ≥ len(psegs) selects one
// bucket per parameterized layer). It returns the comm segments plus each
// bucket's earliest layer — the last of its layers to finalize during
// backward, which gates the bucket's launch. The plan is a pure function
// of the model and n, so every rank computes identical buckets.
func planBuckets(psegs []nn.ParamSegment, n int) (segs []comm.Segment, minLayer []int) {
	if n <= 0 || n > len(psegs) {
		n = len(psegs)
	}
	total := 0
	for _, s := range psegs {
		total += s.Len
	}
	si := 0
	for b := 0; b < n; b++ {
		first := psegs[si]
		off, words := first.Off, first.Len
		si++
		// Grow the bucket toward the cumulative word target, keeping at
		// least one segment for each remaining bucket.
		target := (total*(b+1) + n - 1) / n
		for si < len(psegs) && len(psegs)-si > n-b-1 && off+words < target {
			words += psegs[si].Len
			si++
		}
		segs = append(segs, comm.Segment{Off: off, Len: words})
		minLayer = append(minLayer, first.Layer)
	}
	return segs, minLayer
}
