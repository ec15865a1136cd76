package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/comm/wire"
	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/nn"
	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// sampler times repeated calls of one operation: it keeps going until
// it has maxN samples or has spent its time slice, and never stops
// before minN samples.
type sampler struct {
	minN, maxN int
	slice      time.Duration
}

// p99Sampler collects enough samples for a p99 with ten samples beyond
// it.
var p99Sampler = sampler{minN: 1000, maxN: 20000, slice: time.Second}

// medianSampler is for metrics reported as medians only.
var medianSampler = sampler{minN: 50, maxN: 20000, slice: 300 * time.Millisecond}

// run calls fn repeatedly and returns each call's duration in ns.
func (s sampler) run(fn func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < s.minN || (len(out) < s.maxN && time.Since(start) < s.slice) {
		t := time.Now()
		fn()
		out = append(out, float64(time.Since(t).Nanoseconds()))
	}
	return out
}

// layerMetrics times calls into the nn, tensor, parallel, data, comm,
// comm/wire and TCP transport layers at the workload's own shapes:
// its model, minibatch size, learner count, collective and model size.
func layerMetrics(r *run, w *workload, in *instance) {
	prob := in.ex.Problem
	batch := in.ex.Batch
	defer parallel.SetWorkers(parallel.SetWorkers(w.workers))

	net := prob.Model(1)
	rng := rand.New(rand.NewSource(1))
	idx := rng.Perm(prob.Train.Len())[:batch]
	x, y := prob.Train.Batch(idx)

	// Layers of the other model are not on this workload's path.
	for _, other := range []*nn.Network{
		model.NewCIFARNet(rand.New(rand.NewSource(1)), model.SmallCIFARConfig()),
		model.NewNLCFNet(rand.New(rand.NewSource(1)), model.SmallNLCFConfig()),
	} {
		for i, l := range other.Layers() {
			r.set(layerName(i, l)+".fwd_ns_p50", "ns", 0)
			r.set(layerName(i, l)+".bwd_ns_p50", "ns", 0)
		}
	}
	fwd, bwd := perLayerTimes(net, x, y)
	for i, l := range net.Layers() {
		r.set(layerName(i, l)+".fwd_ns_p50", "ns", median(fwd[i]))
		r.set(layerName(i, l)+".bwd_ns_p50", "ns", median(bwd[i]))
	}

	steps := p99Sampler.run(func() { net.Step(x, y) })
	r.set("nn.step_ns_p50", "ns", percentile(steps, 50))
	r.set("nn.step_ns_p99", "ns", percentile(steps, 99))

	evalIdx := make([]int, evalBatch)
	for i := range evalIdx {
		evalIdx[i] = i % prob.Test.Len()
	}
	ex, _ := prob.Test.Batch(evalIdx)
	pred := medianSampler.run(func() { net.Predict(ex) })
	r.set("nn.predict_ns_per_sample", "ns", median(pred)/evalBatch)
	r.set("core.eval_s_per_epoch", "s", evalSeconds(prob, net.ParamData()))

	r.set("parallel.step_speedup_w2", "ratio", stepSpeedup(net, x, y))
	r.set("tensor.gemm_gflops", "GFLOP/s", gemmGflops(net, batch))

	batches := medianSampler.run(func() { prob.Train.Batch(idx) })
	r.set("data.batch_ns_p50", "ns", median(batches))

	words := net.NumParams()
	ar, err := allreduceTimes(w, words)
	r.attempted++
	if err != nil {
		r.fail("allreduce timing: %v", err)
	}
	r.set("comm.allreduce_ns_p50", "ns", percentile(ar, 50))
	r.set("comm.allreduce_ns_p99", "ns", percentile(ar, 99))

	enc, dec := wireTimes(words)
	r.set("wire.encode_ns", "ns", median(enc))
	r.set("wire.decode_ns", "ns", median(dec))

	rtt, err := tcpRTT(words)
	r.attempted++
	if err != nil {
		r.fail("tcp round trip: %v", err)
	}
	r.set("tcp.rtt_ns_p50", "ns", percentile(rtt, 50))
	r.set("tcp.rtt_ns_p99", "ns", percentile(rtt, 99))
}

// layerName is the metric prefix of the i-th entry of
// Network.Layers(): its index and Go type name.
func layerName(i int, l nn.Layer) string {
	t := fmt.Sprintf("%T", l)
	return fmt.Sprintf("nn.L%d_%s", i, t[strings.LastIndex(t, ".")+1:])
}

// perLayerTimes runs each layer's Forward on its own (so a GEMM layer
// and its activation are timed apart, where Network.Forward fuses
// them), then Network.BackwardEach, timing each layer's backward from
// the finalization hook. It returns per-layer samples in ns.
func perLayerTimes(net *nn.Network, x *tensor.Tensor, y []int) (fwd, bwd [][]float64) {
	layers := net.Layers()
	fwd = make([][]float64, len(layers))
	bwd = make([][]float64, len(layers))
	start := time.Now()
	for it := 0; it < medianSampler.minN || (it < medianSampler.maxN && time.Since(start) < medianSampler.slice); it++ {
		out := x
		for i, l := range layers {
			t := time.Now()
			out = l.Forward(out, true)
			fwd[i] = append(fwd[i], float64(time.Since(t).Nanoseconds()))
		}
		net.Loss(out, y)
		last := time.Now()
		net.BackwardEach(func(i int) {
			now := time.Now()
			bwd[i] = append(bwd[i], float64(now.Sub(last).Nanoseconds()))
			last = now
		})
	}
	return fwd, bwd
}

// stepSpeedup is the median Network.Step time at one kernel worker over
// the median at two, measured in alternating blocks.
func stepSpeedup(net *nn.Network, x *tensor.Tensor, y []int) float64 {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	var w1, w2 []float64
	block := sampler{minN: 20, maxN: 2000, slice: 100 * time.Millisecond}
	for i := 0; i < 5; i++ {
		parallel.SetWorkers(1)
		w1 = append(w1, block.run(func() { net.Step(x, y) })...)
		parallel.SetWorkers(2)
		w2 = append(w2, block.run(func() { net.Step(x, y) })...)
	}
	return median(w1) / median(w2)
}

// evalSeconds times one accuracy evaluation of params over the train
// and test sets, the way the trainer's recorder does it after every
// epoch: minibatches of evalBatch through Network.Predict. Median of
// three.
func evalSeconds(prob *core.Problem, params []float64) float64 {
	net := prob.Model(1)
	var t []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		net.SetParamData(params)
		for _, ds := range []*data.Dataset{prob.Train, prob.Test} {
			forEvalBatches(ds, func(x *tensor.Tensor, _ []int) { net.Predict(x) })
		}
		t = append(t, time.Since(start).Seconds())
	}
	return median(t)
}

// gemmShape returns the per-call GEMM dimensions of a layer's forward
// pass at the given minibatch size and per-sample input shape, or
// ok=false for layers without a GEMM.
func gemmShape(l nn.Layer, in []int, batch int) (m, k, n int, ok bool) {
	switch l := l.(type) {
	case *nn.Linear:
		return batch, l.In, l.Out, true
	case *nn.Conv2D: // one GEMM per sample: weights × im2col columns
		oh, ow := l.Geom.OutSize(in[1], in[2])
		return l.OutC, l.InC * l.Geom.KH * l.Geom.KW, oh * ow, true
	case *nn.TemporalConv: // unfolded frames × weights
		return batch * (in[0] - l.Window + 1), l.Window * l.InD, l.OutK, true
	}
	return 0, 0, 0, false
}

// gemmGflops times tensor.MatMulInto on one worker at the model's
// largest per-call GEMM shape.
func gemmGflops(net *nn.Network, batch int) float64 {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	var m, k, n int
	shape := net.InShape()
	for _, l := range net.Layers() {
		if lm, lk, ln, ok := gemmShape(l, shape, batch); ok && lm*lk*ln > m*k*n {
			m, k, n = lm, lk, ln
		}
		shape = l.OutShape(shape)
	}
	rng := rand.New(rand.NewSource(2))
	a, b, c := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// Each sample is a block of calls long enough to time reliably.
	reps := 1 + (1<<20)/(m*k*n)
	t := medianSampler.run(func() {
		for i := 0; i < reps; i++ {
			tensor.MatMulInto(c, a, b, m, k, n)
		}
	})
	return 2 * float64(m*k*n) * float64(reps) / median(t)
}

// allreduceTimes drives the workload's collective at model size from
// p goroutines on its own transport and returns rank 0's per-call
// times: the dense tree over the channel fabric or TCP loopback, or
// the top-k codec's sparse collective.
func allreduceTimes(w *workload, words int) ([]float64, error) {
	var g *comm.Group
	if w.tcp {
		tr, err := comm.NewTCPLoopback(w.p)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		g = comm.NewTransportGroup(tr, nil, nil, nil)
	} else {
		g = comm.NewGroup(w.p)
	}
	defer g.Close()
	rng := rand.New(rand.NewSource(3))
	grad := make([]float64, words)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	// Rank 0 times its calls and tells the other ranks, one call at a
	// time, whether to make another.
	next := make([]chan struct{}, w.p)
	for i := range next {
		next[i] = make(chan struct{}, 1) // one pending call at a time
	}
	var times []float64
	var wg sync.WaitGroup
	for rank := 0; rank < w.p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			buf := make([]float64, words)
			res := make([]float64, words)
			codec := comm.NewCompressor(w.compress)
			call := func() {
				copy(buf, grad)
				if codec != nil {
					codec.Allreduce(g, rank, buf, res, 0.05, 0, nil, 0)
				} else {
					g.AllreduceTree(rank, buf)
				}
			}
			if rank > 0 {
				for range next[rank] {
					call()
				}
				return
			}
			times = p99Sampler.run(func() {
				for _, ch := range next[1:] {
					ch <- struct{}{}
				}
				call()
			})
			for _, ch := range next[1:] {
				close(ch)
			}
		}(rank)
	}
	wg.Wait()
	return times, nil
}

// wireTimes times wire.AppendFrame and wire.DecodeBody on one frame
// carrying a model-size payload.
func wireTimes(words int) (enc, dec []float64) {
	payload := make([]float64, words)
	for i := range payload {
		payload[i] = float64(i) * 0.5
	}
	h := wire.Header{From: 0, To: 1}
	frame := wire.AppendFrame(nil, h, payload)
	enc = medianSampler.run(func() { frame = wire.AppendFrame(frame[:0], h, payload) })
	dst := make([]float64, words)
	var err error
	dec = medianSampler.run(func() { _, err = wire.DecodeBody(frame[wire.PrefixLen:], dst) })
	if err != nil {
		panic(fmt.Sprintf("perfbench: decoding a frame just encoded: %v", err))
	}
	return enc, dec
}

// tcpRTT ping-pongs one model-size frame between two ranks of a TCP
// loopback transport through Send and Recv, and returns the round
// trips in ns. An empty frame tells the echoing rank to stop.
func tcpRTT(words int) ([]float64, error) {
	tr, err := comm.NewTCPLoopback(2)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f := tr.Recv(1, 0)
			if len(f.Data) == 0 {
				return
			}
			tr.Send(1, 0, f)
		}
	}()
	payload := make([]float64, words)
	rtt := p99Sampler.run(func() {
		tr.Send(0, 1, comm.Frame{Data: payload})
		tr.Recv(0, 1)
	})
	tr.Send(0, 1, comm.Frame{})
	<-done
	return rtt, nil
}
