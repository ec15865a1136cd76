package core

import (
	"sasgd/internal/data"
	"sasgd/internal/tensor"
)

// trainSGD is the sequential baseline: one learner, one pass of shuffled
// minibatches per epoch, x ← x − γ·g. All speedup numbers in the paper's
// timing figures are relative to this run.
func trainSGD(cfg Config, prob *Problem, evalShards int) *Result {
	rec := newRecorder(prob, evalShards)
	net := prob.newReplica(cfg.Seed)
	params := net.ParamData()
	grads := net.GradData()
	sampler := data.NewEpochSampler(prob.Train.Len(), cfg.Batch, cfg.Seed+7)
	bpe := sampler.BatchesPerEpoch()

	var samples int64
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for b := 0; b < bpe; b++ {
			idx := sampler.Next()
			x, y := prob.Train.Batch(idx)
			lastLoss = net.Step(x, y)
			tensor.Axpy(-cfg.Gamma, grads, params)
			samples += int64(len(idx))
			if cfg.Sim != nil {
				cfg.Sim.ChargeBatch(0, cfg.FlopsPerSample*float64(len(idx)))
			}
		}
		if (epoch+1)%cfg.EvalEvery == 0 {
			simNow := 0.0
			if cfg.Sim != nil {
				simNow = cfg.Sim.MaxTime()
			}
			rec.record(epoch+1, params, lastLoss, simNow)
		}
	}

	simTime, compute, communication := cfg.simSplits()
	return &Result{
		Algo:        AlgoSGD,
		FinalParams: append([]float64(nil), params...),
		P:           1,
		T:           cfg.Interval,
		Curve:       rec.points(),
		Samples:     samples,
		SimTime:     simTime,
		SimCompute:  compute,
		SimComm:     communication,
	}
}
