package core

import (
	"sync/atomic"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/tensor"
)

// trainDownpour implements Downpour ASGD (Dean et al., the paper's first
// baseline). Each learner keeps a local replica; every T minibatches it
// pushes its accumulated gradient to the sharded parameter server (which
// applies x̃ ← x̃ − γ·gs) and pulls fresh parameters. Between syncs the
// learner also applies its gradients locally so it keeps learning within
// the interval, matching the Downpour variant the paper describes that
// "processes multiple minibatches before sending gradients
// asynchronously".
//
// There is no synchronization between learners: gradient staleness —
// how many other updates the server absorbed between this learner's pull
// and its push — is determined by goroutine scheduling, exactly the
// scheduler- and topology-dependent staleness the paper contrasts with
// SASGD's explicit bound. The run measures it (Result.StalenessMean/Max).
func trainDownpour(cfg Config, prob *Problem) *Result {
	p := cfg.Learners
	shards := prob.Train.Partition(p)
	bpe := batchesPerEpoch(shards, cfg.Batch)

	// The server is initialized from learner 0's replica; learners then
	// pull, which stands in for the initial broadcast.
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
		gs := make([]float64, m)

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
				tensor.Axpy(-cfg.Gamma, grads, params)
				tensor.Axpy(1, grads, gs)
				samples.Add(int64(len(idx)))
				if cfg.Sim != nil {
					cfg.Sim.ChargeBatch(rank, cfg.FlopsPerSample*float64(len(idx)))
				}
				step++
				if step%cfg.Interval == 0 {
					pushGens := server.PushGrad(rank, cfg.Gamma, gs)
					stats.observe(staleness(pullGens, pushGens))
					for i := range gs {
						gs[i] = 0
					}
					pullGens = server.Pull(rank, params)
				}
				pacer.end()
			}
			// Learner 0's pass over its shard marks one collective epoch
			// (the paper's accounting: Downpour reports accuracy from one
			// learner after each of its full passes).
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
		Algo:          AlgoDownpour,
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

// staleness counts the server updates by other learners that intervened
// between a pull and the following push: each shard advanced by one for
// our own push, so anything beyond that is foreign.
func staleness(pullGens, pushGens []int64) int64 {
	var s int64
	for i := range pushGens {
		d := pushGens[i] - pullGens[i] - 1
		if d > 0 {
			s += d
		}
	}
	return s / int64(len(pushGens))
}
