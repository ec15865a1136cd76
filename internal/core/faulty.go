package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// trainSASGDResilient is Algorithm 1 under failures: the same local
// loop and aggregation as trainSASGD, but every synchronization point —
// each aggregation boundary and each epoch barrier — goes through a
// comm.Resilient membership ledger instead of a bare barrier, so the
// run survives message drops and delays (acknowledged delivery with
// retry below), stragglers (real per-batch sleeps plus simulated
// slowdown; evicted only if they fall behind the failure detector's
// EvictAfter), and scheduled crashes (the rank goes silent at its
// boundary, the survivors detect, evict, re-form a smaller group and
// continue with the aggregation rate rescaled to γp·OrigP/|live| —
// preserving the per-gradient step size the original γp encoded).
//
// The path also owns checkpoint-restart. Two rank spaces keep resume
// orthogonal to fault handling: run-physical ranks 0..p−1 name this
// run's goroutines, clocks and fault-plan entries, while data-physical
// ranks (Config.ResumeRanks, identity when not resuming) name the
// original run's shards and seed streams. A resumed run therefore
// replays exactly the sample sequence the original ranks would have
// consumed — with a survivors-only mapping, exactly what the survivors
// would have consumed — which is what makes post-eviction aggregated
// gradients bitwise-comparable between a degraded run and a fault-free
// resume over the survivors (the chaos harness's core assertion).
//
// Trainer-level differences from trainSASGD: overlapped aggregation
// falls back to the serial schedule and codec collectives run
// synchronously (the bucketed worker assumes a fixed group), and
// evaluation/recording is done by the current view's virtual rank 0
// (which moves if rank 0 crashes).
//
// The communication-schedule policies (schedule.go, delayed.go) compose
// with fault handling as follows. The T-scheduler runs on the live view
// — its adaptive drift statistic is allreduced over the survivors — and
// the current period is checkpointed (CurT) so an adaptive resume
// continues the schedule. The hierarchy is defined on run-physical
// ranks (the simulated topology does not change when a rank dies) and
// re-partitioned over the survivors on every view change: the island
// working references w are averaged over the new view — every applied
// gradient is carried by some island's w, so the average IS the global
// mean model — the un-exchanged island accumulator and any pending
// outer aggregate (whose gradients w already carries island-locally)
// are dropped, and the global reference rebases onto the average.
// Delayed application under faults defers only the APPLICATION: the
// exchange itself runs synchronously at its boundary, because a launch
// left in flight across a membership change would address a dead group.
func trainSASGDResilient(cfg Config, prob *Problem) *Result {
	p := cfg.Learners
	plan := cfg.Faults

	var rs *resumeState
	if cfg.ResumeFrom != "" {
		var err error
		if rs, err = loadResume(cfg); err != nil {
			panic(err)
		}
		// γp belongs to the original run's shape; restore it so rescaling
		// by OrigP/|live| lands on the same effective rate the original
		// run's survivors would use.
		cfg.GammaP = rs.meta.GammaP
	}
	origP := p
	dataRanks := make([]int, p)
	for i := range dataRanks {
		dataRanks[i] = i
	}
	startStep, startBoundary := 0, 0
	if rs != nil {
		origP = rs.meta.OrigP
		dataRanks = rs.ranks
		startStep, startBoundary = rs.meta.Step, rs.meta.Boundary
	}

	// Shards are partitioned by the ORIGINAL learner count so a
	// survivors-only resume trains on the survivors' own shards, not a
	// repartition of the whole set.
	shards := prob.Train.Partition(origP)
	bpe := batchesPerEpoch(shards, cfg.Batch)

	var clocks []comm.Clock
	var cost comm.CostModel
	if cfg.Sim != nil {
		clocks = cfg.Sim.Clocks()
		cost = cfg.Sim.CostModel()
	}
	var res *comm.Resilient
	if cfg.Transport != nil {
		// The same wire mesh carries every membership view (initial and
		// survivor re-forms); NewResilientOver insists it is all-local.
		res = comm.NewResilientOver(cfg.Transport, plan, clocks, cost, cfg.Tracer)
	} else {
		res = comm.NewResilient(p, plan, clocks, cost, cfg.Tracer)
	}
	cfg.Tracer.SetStats(func() interface{} { return res.Stats() })
	rec := newRecorder(prob)
	fleet := newFleet(cfg, p)
	var samples atomic.Int64
	var finalParams []float64
	var finalRatio float64
	var finalT int

	runLearners(p, func(runPhys int) {
		dataPhys := dataRanks[runPhys]
		net := prob.newReplica(cfg.Seed + int64(dataPhys))
		m := net.NumParams()
		params := net.ParamData()
		grads := net.GradData()
		tk := cfg.Tracer.Learner(runPhys)
		net.SetTrack(tk)
		fc := newFleetCollector(cfg, runPhys, p, fleet)
		fc.attach(net)

		if rs != nil {
			if len(rs.params) != m {
				panic(fmt.Sprintf("core: checkpoint has %d parameters, model has %d", len(rs.params), m))
			}
			copy(params, rs.params)
		}
		view := res.Current()
		// x ← broadcast(x, p, id); x′ ← x. On resume all replicas already
		// carry the checkpoint parameters and the broadcast is a no-op in
		// values; it still runs so the wire schedule matches a cold start.
		bs := tk.Begin()
		view.G.BroadcastTree(runPhys, params)
		tk.End(obs.PhaseBcast, bs)
		xref := append([]float64(nil), params...)
		gs := make([]float64, m)
		// Compression engine state (see compress.go). The resilient path
		// drives the codec synchronously per bucket instead of through the
		// bucketed worker because group membership can change between
		// boundaries; values are identical to the worker's schedule.
		codec := newCodecState(cfg, m)
		var csegs []comm.Segment
		if codec != nil {
			csegs, _ = planBuckets(net.ParamSegments(), cfg.CommBuckets)
		}

		sched := newTScheduler(cfg)
		if rs != nil {
			sched.restore(startBoundary, rs.meta.CurT)
		}
		// Hierarchical state: islands keyed by run-physical rank, the
		// working reference w and island accumulator hacc (see delayed.go
		// for the ledger discipline), re-partitioned on view changes.
		var (
			baseIsl   []int
			hier      *comm.Hier
			hierVer   int
			w, hacc   []float64
			outerLeft int
			hchunk    int
		)
		if cfg.HierGroups >= 2 {
			baseIsl = comm.BlockIslands(p, cfg.HierGroups)
			hier = hierForView(view, baseIsl)
			hierVer = view.Version
			w = append([]float64(nil), xref...)
			hacc = make([]float64, m)
			outerLeft = cfg.TOuter
			hchunk = cfg.CommChunk
			if cfg.Allreduce != AllreducePTree {
				hchunk = m
			}
		}
		// Delayed-application state: pend holds a completed global
		// aggregate awaiting its next-boundary application, with the
		// effective rate frozen at exchange time (membership may shrink
		// before it lands).
		var (
			pend   []float64
			pendG  float64
			pendOn bool
		)
		if cfg.DelayedApply {
			pend = make([]float64, m)
		}

		sampler := data.NewEpochSampler(shards[dataPhys].Len(), cfg.Batch, cfg.Seed+int64(dataPhys)*31+7)
		sampler.Skip(startStep)
		if cfg.Sim != nil {
			cfg.Sim.SkipBatches(runPhys, startStep)
			if k := plan.SlowFactor(runPhys); k > 1 {
				cfg.Sim.SetSlowdown(runPhys, k)
			}
		}
		slowSleep := plan.SlowSleepFor(runPhys)
		crashAt := plan.CrashBoundary(runPhys)

		var lastLoss float64
		step := startStep
		boundary := startBoundary
		next := startStep + sched.T()
		sync := 0
		startEpoch := startStep / bpe
		for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
			b0 := 0
			if epoch == startEpoch {
				b0 = startStep % bpe
			}
			for b := b0; b < bpe; b++ {
				idx := sampler.Next()
				x, y := shards[dataPhys].Batch(idx)
				lastLoss = net.Step(x, y)
				// x ← x − γ·g ; gs ← gs + g
				ls := tk.Begin()
				tensor.Axpy(-cfg.Gamma, grads, params)
				tensor.Axpy(1, grads, gs)
				tk.End(obs.PhaseLocalStep, ls)
				samples.Add(int64(len(idx)))
				if cfg.Sim != nil {
					cfg.Sim.ChargeBatch(runPhys, cfg.FlopsPerSample*float64(len(idx)))
				}
				if slowSleep > 0 {
					time.Sleep(slowSleep)
				}
				step++
				if step != next {
					continue
				}
				if crashAt >= 0 && boundary == crashAt {
					// Fail-stop: go silent without posting the boundary's
					// heartbeat. The peers detect and evict.
					res.Crash(runPhys)
					return
				}
				if fc != nil {
					// Drift against the reference the replica was reset to
					// at the last boundary (w under a hierarchy). Measured
					// before the membership sync: pure local reads.
					ref := xref
					if w != nil {
						ref = w
					}
					fc.boundaryStart(params, ref)
				}
				v, ok := res.Await(runPhys, sync)
				sync++
				if !ok {
					return // fenced: evicted as a presumed-dead straggler
				}
				view = v
				vr := view.RankOf(runPhys)
				// γp rescale: the aggregated gs now sums |live| learners'
				// gradients instead of OrigP, so the per-learner weight γp
				// is scaled by OrigP/|live| to keep the effective
				// per-gradient step unchanged.
				acfg := cfg
				acfg.GammaP = cfg.GammaP * float64(origP) / float64(view.Size())
				if hier != nil && view.Version != hierVer {
					// Membership changed: globalize the island ledgers
					// before re-partitioning. Averaging the survivors' w
					// yields the global mean model (every applied gradient
					// lives in some w); hacc and a pending outer aggregate
					// duplicate information w already carries and drop.
					view.G.AllreduceTree(vr, w)
					inv := 1.0 / float64(view.Size())
					for i := range w {
						w[i] *= inv
					}
					copy(xref, w)
					clear(hacc)
					pendOn = false
					outerLeft = cfg.TOuter
					hier = hierForView(view, baseIsl)
					hierVer = view.Version
				}
				switch {
				case hier != nil:
					ws := tk.Begin()
					hier.AllreduceIntra(vr, gs, hchunk, view.G.Clock(vr).Now())
					tk.End(obs.PhaseAggWait, ws)
					as := tk.Begin()
					tensor.Axpy(1, gs, hacc)
					// Island-local model averaging over the island's LIVE
					// members, at the original per-gradient weight.
					tensor.Axpy(-cfg.GammaP*float64(origP)/float64(hier.IslandSize(vr)), gs, w)
					tk.End(obs.PhaseAggApply, as)
					outerLeft--
					if outerLeft == 0 {
						outerLeft = cfg.TOuter
						ws = tk.Begin()
						if cfg.DelayedApply {
							// Deferred application: fold in the PREVIOUS
							// outer aggregate, rebase w, then exchange this
							// round's — synchronously, but applied only at
							// the next outer boundary.
							tk.End(obs.PhaseAggWait, ws)
							as = tk.Begin()
							if pendOn {
								tensor.Axpy(-pendG, pend, xref)
							}
							tensor.Copy(w, xref)
							tensor.Copy(pend, hacc)
							tk.End(obs.PhaseAggApply, as)
							ws = tk.Begin()
							hier.AllreduceInter(vr, pend, hchunk, view.G.Clock(vr).Now())
							tk.End(obs.PhaseAggWait, ws)
							pendG = acfg.GammaP
							pendOn = true
						} else {
							hier.AllreduceInter(vr, hacc, hchunk, view.G.Clock(vr).Now())
							tk.End(obs.PhaseAggWait, ws)
							as = tk.Begin()
							tensor.Axpy(-acfg.GammaP, hacc, xref)
							tensor.Copy(w, xref)
							tk.End(obs.PhaseAggApply, as)
						}
						clear(hacc)
					}
					as = tk.Begin()
					sched.advance(view.G, vr, view.Size(), params, w)
					tensor.Copy(params, w)
					clear(gs)
					tk.End(obs.PhaseAggApply, as)
				default:
					// Flat boundary in flatEager's operation order. The codec
					// collectives run synchronously, bucket by bucket in the
					// bucketed worker's descending order. Delayed application
					// (dense only under faults) exchanges now and applies the
					// PREVIOUS boundary's aggregate, with the rate frozen at
					// its exchange.
					ws := tk.Begin()
					if codec != nil {
						ready := view.G.Clock(vr).Now()
						for bi := len(csegs) - 1; bi >= 0; bi-- {
							s := csegs[bi]
							codec.comp.Allreduce(view.G, vr, gs[s.Off:s.Off+s.Len], codec.res[s.Off:s.Off+s.Len], codec.ratio, ready, tk, int32(bi))
						}
					} else {
						cfg.allreduce(view.G, vr, gs)
					}
					tk.End(obs.PhaseAggWait, ws)
					if cfg.AggHook != nil && vr == 0 && codec == nil && !cfg.DelayedApply {
						cfg.AggHook(boundary, gs)
					}
					as := tk.Begin()
					if !cfg.DelayedApply {
						tensor.Axpy(-acfg.GammaP, gs, xref)
					} else if pendOn {
						tensor.Axpy(-pendG, pend, xref)
					}
					sched.advance(view.G, vr, view.Size(), params, xref)
					tensor.Copy(params, xref)
					if cfg.DelayedApply {
						gs, pend = pend, gs
						pendG = acfg.GammaP
						pendOn = true
					}
					clear(gs)
					tk.End(obs.PhaseAggApply, as)
					codec.adapt(view.G, vr)
				}
				fc.boundaryEnd(view.G, vr, sched.T(), codec)
				boundary++
				next = step + sched.T()
				if cfg.CheckpointPath != "" && view.RankOf(runPhys) == 0 && boundary%cfg.CheckpointEvery == 0 {
					live := make([]int, view.Size())
					for vr, pr := range view.Phys {
						live[vr] = dataRanks[pr]
					}
					meta := checkpointMeta{
						OrigP:    origP,
						Interval: cfg.Interval,
						Batch:    cfg.Batch,
						Seed:     cfg.Seed,
						GammaP:   cfg.GammaP,
						Step:     step,
						Boundary: boundary,
						CurT:     sched.T(),
						Live:     live,
					}
					if err := writeCheckpoint(checkpointFile(cfg.CheckpointPath, boundary), meta, xref); err != nil {
						panic(err)
					}
				}
			}
			if epoch == cfg.Epochs-1 && pendOn {
				// Flush the pending delayed aggregate before the final
				// evaluation; it is already complete (the exchange was
				// synchronous), so this is pure local arithmetic.
				as := tk.Begin()
				tensor.Axpy(-pendG, pend, xref)
				if hier != nil {
					tensor.Copy(w, xref)
					tensor.Copy(params, w)
				} else {
					tensor.Copy(params, xref)
				}
				pendOn = false
				tk.End(obs.PhaseAggApply, as)
			}
			// Collective epoch boundary: synchronize, let the current
			// view's virtual rank 0 record accuracy, synchronize again so
			// nobody races ahead into the next epoch during evaluation.
			v, ok := res.Await(runPhys, sync)
			sync++
			if !ok {
				return
			}
			view = v
			if view.RankOf(runPhys) == 0 && (epoch+1)%cfg.EvalEvery == 0 {
				simNow := 0.0
				if cfg.Sim != nil {
					simNow = cfg.Sim.MaxTime()
				}
				rec.record(epoch+1, params, lastLoss, simNow)
			}
			v, ok = res.Await(runPhys, sync)
			sync++
			if !ok {
				return
			}
			view = v
		}
		if view.RankOf(runPhys) == 0 {
			finalParams = append([]float64(nil), params...)
			finalT = sched.T()
			finalRatio = codec.finalK()
		}
	})

	stats := res.Stats()
	res.Close()
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
		WordsMoved:  stats.Words,
		Comm:        stats,
		CompressK:   finalRatio,
		LiveP:       res.Current().Size(),
		FinalParams: finalParams,
	}
}

// hierForView re-partitions the hierarchy onto a membership view: each
// virtual rank keeps the island its run-physical rank belongs to in the
// base (topology-derived) partition, so survivors regroup with their
// physical neighbors and emptied islands disappear (NewHierOf
// normalizes island ids by first appearance).
func hierForView(v comm.View, baseIslandOf []int) *comm.Hier {
	isl := make([]int, v.Size())
	for vr, pr := range v.Phys {
		isl[vr] = baseIslandOf[pr]
	}
	return comm.NewHierOf(v.G, isl)
}

// checkpointFile resolves the configured checkpoint path for a
// boundary: a "%d" verb keeps one file per boundary (the chaos harness
// resumes from the boundary before a crash), a plain path is
// overwritten in place (normal operation keeps only the latest).
func checkpointFile(path string, boundary int) string {
	if strings.Contains(path, "%d") {
		return fmt.Sprintf(path, boundary)
	}
	return path
}
