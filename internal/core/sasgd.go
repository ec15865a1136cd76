package core

import (
	"sync/atomic"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// trainSASGD implements Algorithm 1 of the paper: every fault-free SASGD
// run goes through this one loop.
//
// Each of the p learners runs T local minibatch updates (x ← x − γ·g),
// accumulating every gradient it applied into gs. At the end of the
// interval the learners allreduce gs, apply the aggregated gradient to
// the shared reference parameters with the global rate γp
// (x′ ← x′ − γp·gs), reset their local replica to x′, and clear gs.
// Initial parameters are broadcast from learner 0. With γp = γ/p the
// aggregation step is exactly model averaging of the p local replicas,
// the heuristic the paper notes Algorithm 1 simulates.
//
// Gradient staleness is bounded by T by construction: no gradient is
// applied to the global parameters more than T local updates after it
// was computed, which is the property the paper contrasts with ASGD's
// scheduler-dependent staleness.
//
// What happens at a boundary — how T moves, flat or hierarchical
// aggregation, eager or delayed application, which collective or codec,
// whether buckets launch from inside backward — is the schedEngine's
// policy (delayed.go, overlap.go); the loop only decides where the
// boundaries fall.
func trainSASGD(cfg Config, prob *Problem, evalShards int) *Result {
	p := cfg.Learners
	shards := prob.Train.Partition(p)
	bpe := batchesPerEpoch(shards, cfg.Batch)

	group := newTrainGroup(cfg, p)
	// Attach the tracer before the learner goroutines start: comm workers
	// pick up their trace tracks at creation, and the tracer's live stats
	// source serves the group's counters to the debug endpoint.
	group.SetTracer(cfg.Tracer)
	cfg.Tracer.SetStats(func() interface{} { return group.Stats() })
	switch {
	case cfg.HierGroups >= 2:
		// The hierarchy's partition map (the one comm.NewHier installs
		// again per rank), in place before any learner starts so the
		// initial broadcast's cross-island words count on every schedule.
		group.SetIslands(comm.BlockIslands(p, cfg.HierGroups))
	case cfg.Sim != nil:
		// Flat runs get cross-island accounting from the simulated
		// topology, so frontier tables can compare the uplink traffic a
		// hierarchical schedule would have avoided.
		islandOf := make([]int, p)
		for r := range islandOf {
			islandOf[r] = cfg.Sim.IslandOf(r)
		}
		group.SetIslands(islandOf)
	}
	rec := newRecorder(prob, evalShards)
	fleet := newFleet(cfg, p)
	var samples atomic.Int64
	var finalParams []float64
	var finalRatio float64
	var finalT int

	runLearnersOn(cfg.localRanks(p), func(rank int) {
		net := prob.newReplica(cfg.Seed + int64(rank))
		m := net.NumParams()
		params := net.ParamData()
		grads := net.GradData()
		tk := cfg.Tracer.Learner(rank)
		net.SetTrack(tk)

		// x ← broadcast(x, p, id); x′ ← x
		bs := tk.Begin()
		group.BroadcastTree(rank, params)
		tk.End(obs.PhaseBcast, bs)
		xref := append([]float64(nil), params...)
		gs := make([]float64, m)

		eng := newSchedEngine(cfg, group, rank, p, net, gs, xref, tk)
		eng.fc = newFleetCollector(cfg, rank, p, fleet)
		eng.fc.attach(net)

		sampler := data.NewEpochSampler(shards[rank].Len(), cfg.Batch, cfg.Seed+int64(rank)*31+7)
		var lastLoss float64
		step := 0
		next := eng.sched.T()
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for b := 0; b < bpe; b++ {
				idx := sampler.Next()
				x, y := shards[rank].Batch(idx)
				flops := cfg.FlopsPerSample * float64(len(idx))
				if eng.overlap && step+1 == next {
					// Overlapped boundary batch: the backward hooks fold
					// each finalized bucket into gs and launch it, so the
					// local step below only moves the replica.
					lastLoss = eng.stepOverlapped(net, x, y, flops)
					ls := tk.Begin()
					tensor.Axpy(-cfg.Gamma, grads, params)
					tk.End(obs.PhaseLocalStep, ls)
				} else {
					lastLoss = net.Step(x, y)
					// x ← x − γ·g ; gs ← gs + g (eng.gs is the current
					// accumulator — the delayed path swaps it with the
					// in-flight buffer at each boundary).
					ls := tk.Begin()
					tensor.Axpy(-cfg.Gamma, grads, params)
					tensor.Axpy(1, grads, eng.gs)
					tk.End(obs.PhaseLocalStep, ls)
					if cfg.Sim != nil {
						cfg.Sim.ChargeBatch(rank, flops)
					}
				}
				samples.Add(int64(len(idx)))
				step++
				if step == next {
					eng.onBoundary(params)
					next = step + eng.sched.T()
				}
			}
			if epoch == cfg.Epochs-1 {
				// Apply any still-pending delayed aggregate before the
				// final epoch's evaluation: waiting on local handles
				// involves no group collective, so per-rank timing is
				// free to differ here.
				eng.flush(params)
			} else {
				eng.drain()
			}
			// Collective epoch boundary: synchronize and let learner 0
			// record accuracy from its own replica (the paper collects
			// accuracy from one learner after each full pass), sharded
			// over the cores the parked learners leave idle.
			group.Barrier(rank)
			if rank == 0 && (epoch+1)%cfg.EvalEvery == 0 {
				simNow := 0.0
				if cfg.Sim != nil {
					simNow = cfg.Sim.MaxTime()
				}
				rec.record(epoch+1, params, lastLoss, simNow)
			}
			group.Barrier(rank)
		}
		eng.close()
		if rank == 0 {
			finalParams = append([]float64(nil), params...)
			finalT = eng.sched.T()
			finalRatio = eng.codec.finalK()
		}
	})

	simTime, compute, communication := cfg.simSplits()
	return &Result{
		Algo:        AlgoSASGD,
		P:           p,
		T:           cfg.Interval,
		FinalT:      finalT,
		Curve:       rec.points(),
		Samples:     samples.Load(),
		SimTime:     simTime,
		SimCompute:  compute,
		SimComm:     communication,
		WordsMoved:  group.WordsSent(),
		Comm:        group.Stats(),
		CompressK:   finalRatio,
		FinalParams: finalParams,
	}
}

// allreduce sums buf across g with the configured dense collective —
// the one place the Allreduce setting is dispatched on.
func (c Config) allreduce(g *comm.Group, rank int, buf []float64) {
	switch c.Allreduce {
	case AllreduceRing:
		g.AllreduceRing(rank, buf)
	case AllreducePTree:
		g.AllreduceTreeChunked(rank, buf, c.CommChunk)
	case AllreduceRHD:
		g.AllreduceRHD(rank, buf)
	default:
		g.AllreduceTree(rank, buf)
	}
}
