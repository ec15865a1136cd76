package core

import (
	"math"
	"sync/atomic"

	"sasgd/internal/data"
)

// trainHogwild implements Hogwild (Niu et al., cited by the paper as the
// lock-free ASGD whose linear-speedup analysis started the line of work
// SASGD responds to): all learners share ONE parameter vector with no
// locks and no server. Each learner snapshots the shared parameters,
// computes a minibatch gradient against the (possibly torn) snapshot,
// and applies it coordinate-by-coordinate with atomic compare-and-swap —
// the Go-safe rendering of Hogwild's racy in-place updates. The original
// analysis assumes sparse gradients; with dense deep-learning gradients
// the algorithm is "dense Hogwild", which is exactly the regime where
// the paper argues asynchrony starts to hurt.
func trainHogwild(cfg Config, prob *Problem) *Result {
	p := cfg.Learners
	shards := prob.Train.Partition(p)
	bpe := batchesPerEpoch(shards, cfg.Batch)

	init := prob.newReplica(cfg.Seed)
	m := init.NumParams()
	shared := make([]uint64, m)
	for i, v := range init.ParamData() {
		shared[i] = math.Float64bits(v)
	}

	rec := newRecorder(prob, 1)
	var samples atomic.Int64
	var finalParams []float64
	var gate *virtualGate
	if cfg.VirtualTime {
		gate = newVirtualGate(p)
	}

	runLearners(p, func(rank int) {
		pacer := newPacer(gate, rank, &cfg)
		defer pacer.finish()
		net := prob.newReplica(cfg.Seed + int64(rank))
		params := net.ParamData()
		grads := net.GradData()
		sampler := data.NewEpochSampler(shards[rank].Len(), cfg.Batch, cfg.Seed+int64(rank)*31+7)
		var lastLoss float64
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for b := 0; b < bpe; b++ {
				pacer.begin()
				// Snapshot the shared vector (per-word atomic loads; the
				// vector as a whole may be torn across concurrent writers,
				// which is Hogwild's defining property).
				for i := range params {
					params[i] = math.Float64frombits(atomic.LoadUint64(&shared[i]))
				}
				idx := sampler.Next()
				x, y := shards[rank].Batch(idx)
				lastLoss = net.Step(x, y)
				samples.Add(int64(len(idx)))
				if cfg.Sim != nil {
					cfg.Sim.ChargeBatch(rank, cfg.FlopsPerSample*float64(len(idx)))
				}
				// Lock-free coordinate updates: x[i] ← x[i] − γ·g[i].
				for i, g := range grads {
					if g == 0 {
						continue
					}
					delta := cfg.Gamma * g
					for {
						old := atomic.LoadUint64(&shared[i])
						nw := math.Float64bits(math.Float64frombits(old) - delta)
						if atomic.CompareAndSwapUint64(&shared[i], old, nw) {
							break
						}
					}
				}
				pacer.end()
			}
			if rank == 0 && (epoch+1)%cfg.EvalEvery == 0 {
				snap := make([]float64, m)
				for i := range snap {
					snap[i] = math.Float64frombits(atomic.LoadUint64(&shared[i]))
				}
				simNow := 0.0
				if cfg.Sim != nil {
					simNow = cfg.Sim.MaxTime()
				}
				rec.record(epoch+1, snap, lastLoss, simNow)
			}
		}
		if rank == 0 {
			finalParams = make([]float64, m)
			for i := range finalParams {
				finalParams[i] = math.Float64frombits(atomic.LoadUint64(&shared[i]))
			}
		}
	})

	simTime, compute, communication := cfg.simSplits()
	return &Result{
		Algo:        AlgoHogwild,
		P:           p,
		T:           cfg.Interval,
		Curve:       rec.points(),
		Samples:     samples.Load(),
		SimTime:     simTime,
		SimCompute:  compute,
		SimComm:     communication,
		FinalParams: finalParams,
	}
}
