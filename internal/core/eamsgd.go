package core

import (
	"sync/atomic"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/tensor"
)

// trainEAMSGD implements EAMSGD (Zhang, Choromanska & LeCun — the
// paper's second baseline): asynchronous SGD with momentum where, every T
// local updates, each learner performs an elastic exchange with a center
// variable x̃ held by the parameter server:
//
//	d  = α·(xᵢ − x̃)
//	xᵢ ← xᵢ − d
//	x̃  ← x̃ + d
//
// The elastic force links the learners' parameters with the center, which
// is what lets EAMSGD tolerate larger update intervals than Downpour; the
// paper's figures show it sitting between Downpour and SASGD. The default
// α is 0.9/p as in the EASGD paper, and local updates use momentum μ
// (the "M" in EAMSGD).
func trainEAMSGD(cfg Config, prob *Problem) *Result {
	p := cfg.Learners
	shards := prob.Train.Partition(p)
	bpe := batchesPerEpoch(shards, cfg.Batch)

	init := prob.newReplica(cfg.Seed)
	var clocks []comm.Clock
	var cost comm.CostModel
	if cfg.Sim != nil {
		clocks, cost = cfg.Sim.Clocks(), cfg.Sim.CostModel()
	}
	server := comm.NewParamServer(init.ParamData(), cfg.Shards, clocks, cost)

	rec := newRecorder(prob, 1)
	var samples atomic.Int64
	var stats stalenessStats
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
		m := net.NumParams()
		vel := make([]float64, m)

		// The initial pull is learners' step 0: gated so the starting
		// parameters are deterministic under virtual time.
		pacer.begin()
		pullGens := server.Pull(rank, params)
		pacer.end()
		sampler := data.NewEpochSampler(shards[rank].Len(), cfg.Batch, cfg.Seed+int64(rank)*31+7)
		var lastLoss float64
		step := 0
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for b := 0; b < bpe; b++ {
				pacer.begin()
				idx := sampler.Next()
				x, y := shards[rank].Batch(idx)
				lastLoss = net.Step(x, y)
				// Momentum update: v ← μ·v − γ·g ; x ← x + v.
				for i, g := range grads {
					vel[i] = cfg.Momentum*vel[i] - cfg.Gamma*g
				}
				tensor.Axpy(1, vel, params)
				samples.Add(int64(len(idx)))
				if cfg.Sim != nil {
					cfg.Sim.ChargeBatch(rank, cfg.FlopsPerSample*float64(len(idx)))
				}
				step++
				if step%cfg.Interval == 0 {
					// The elastic exchange both reads and writes the
					// center, so its generations support the same
					// staleness accounting as Downpour's push.
					d, gens := server.Elastic(rank, cfg.Alpha, params)
					tensor.Axpy(-1, d, params)
					stats.observe(staleness(pullGens, gens))
					pullGens = gens
				}
				pacer.end()
			}
			if rank == 0 && (epoch+1)%cfg.EvalEvery == 0 {
				simNow := 0.0
				if cfg.Sim != nil {
					simNow = cfg.Sim.MaxTime()
				}
				rec.record(epoch+1, params, lastLoss, simNow)
			}
		}
		if rank == 0 {
			finalParams = append([]float64(nil), params...)
		}
	})

	simTime, compute, communication := cfg.simSplits()
	return &Result{
		Algo:          AlgoEAMSGD,
		P:             p,
		T:             cfg.Interval,
		Curve:         rec.points(),
		Samples:       samples.Load(),
		SimTime:       simTime,
		SimCompute:    compute,
		SimComm:       communication,
		StalenessMean: stats.mean(),
		StalenessMax:  atomic.LoadInt64(&stats.max),
		FinalParams:   finalParams,
	}
}
