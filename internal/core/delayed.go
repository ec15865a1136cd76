package core

import (
	"sasgd/internal/comm"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// The schedEngine: one learner's boundary for the SASGD loop
// (sasgd.go), with the communication policies of Config.TSched /
// HierGroups / DelayedApply / OverlapComm / Compress layered onto it.
// At their defaults — static T, flat, eager, serial, dense — a boundary
// is exactly Algorithm 1's aggregation.
//
// Policy composition at a communication boundary:
//
//   - Flat + eager: allreduce gs, apply γp to the global reference,
//     reset, with the T-scheduler's drift measurement spliced between
//     apply and reset. Under OverlapComm the buckets were already
//     launched from inside the boundary batch's backward pass
//     (overlap.go) and the boundary only waits on them.
//   - Hierarchical: every boundary runs the cheap intra-island
//     allreduce; the island's working reference w moves at the
//     island-local model-averaging rate γp·p/q and the island aggregate
//     accumulates into acc. Every TOuter boundaries the islands
//     exchange acc (leaders tree-allreduce + island fan-out, or a codec
//     collective over the full group with non-leaders contributing
//     zeros), the global reference absorbs it at γp, and w rebases onto
//     it — so each gradient's total weight in the global model is
//     exactly γp regardless of island sizes.
//   - Delayed (DaSGD): the boundary's exchange is launched through the
//     bucketed comm worker and its result applied at the NEXT boundary,
//     hiding the entire transfer behind a full round of compute instead
//     of one backward pass. Under a hierarchical schedule only the
//     outer exchange is delayed. Simulated arrival times are captured
//     in a comm.DeferSync and folded in at the apply boundary, keeping
//     simulated clocks deterministic (the worker's syncs would
//     otherwise race the learner's compute advances).
//
// One-round-shift invariant (pinned in delayed_test.go): the k-th
// aggregate a delayed run computes is bitwise the aggregate an eager
// run computes at its k-th boundary *given the same trajectory*; since
// delay alters the trajectory from the second boundary on, the pinned
// equalities are the first aggregate, the single-boundary run (bitwise
// equal to eager end to end), and hook-origin indices arriving in
// order, each applied exactly one boundary late.

// schedEngine is one learner's communication-schedule state: the
// T-scheduler, the optional hierarchy, the optional delayed double
// buffer, the optional overlap tables, and the optional compression
// codec. All buffers are preallocated; a boundary allocates nothing.
type schedEngine struct {
	cfg   Config
	group *comm.Group
	rank  int
	p     int
	sched *tScheduler
	tk    *obs.Track

	gs   []float64 // current interval accumulator (learner-owned)
	xref []float64 // globally consistent reference x′

	// Hierarchy (nil/unused when HierGroups < 2).
	hier      *comm.Hier
	w         []float64 // island working reference
	acc       []float64 // island aggregate since the last outer exchange
	gpInner   float64   // γp·p/q — the island-local model-averaging rate
	outerLeft int       // boundaries until the next outer exchange
	hchunk    int       // chunk size of the hierarchical sub-collectives

	// Bucketed worker + delayed double buffer.
	segs     []comm.Segment
	b        *comm.BucketedAllreduce
	handles  []comm.Handle
	dsync    *comm.DeferSync
	delayed  bool
	pend     []float64 // the in-flight / pending-application aggregate
	pendAt   int       // origin boundary of the pending aggregate
	inflight bool      // a delayed launch is pending application
	waited   bool      // the pending launch's handles have been waited out
	chunk    int

	// Backward overlap (overlap.go; flat eager boundaries only).
	// bucketAt[layer] is the bucket whose gradients become final when
	// that layer's backward completes (the bucket's earliest layer), or
	// -1. Backward visits layers in reverse, so buckets launch in
	// descending index order — identically on every rank. fracs[layer]
	// is the fraction of the batch's simulated duration elapsed when
	// that layer's backward completes (nil without a simulation), and
	// start/dt the boundary batch's simulated span.
	overlap   bool
	bucketAt  []int
	fracs     []float64
	start, dt float64
	grads     []float64

	codec *codecState // nil = dense aggregation

	fc *fleetCollector // boundary health telemetry (nil = metrics off)

	bidx int // boundaries completed
}

func newSchedEngine(cfg Config, group *comm.Group, rank, p int, net *nn.Network, gs, xref []float64, tk *obs.Track) *schedEngine {
	e := &schedEngine{
		cfg:   cfg,
		group: group,
		rank:  rank,
		p:     p,
		sched: newTScheduler(cfg),
		tk:    tk,
		gs:    gs,
		xref:  xref,
	}
	m := len(gs)
	var minLayer []int
	if psegs := net.ParamSegments(); len(psegs) > 0 {
		e.segs, minLayer = planBuckets(psegs, cfg.CommBuckets)
	}
	e.chunk = cfg.CommChunk
	e.hchunk = cfg.CommChunk
	if cfg.Allreduce != AllreducePTree {
		// Monolithic trees: one chunk per bucket / per whole-buffer
		// collective (bitwise identical either way; this matches the
		// unchunked tree's wire schedule).
		for _, s := range e.segs {
			if s.Len > e.chunk {
				e.chunk = s.Len
			}
		}
		e.hchunk = m
	}
	if cfg.HierGroups >= 2 {
		e.hier = comm.NewHier(group, cfg.HierGroups)
		e.w = append([]float64(nil), xref...)
		e.acc = make([]float64, m)
		// γp·p/q: with γp = γ/p this is γ/q — the rate at which an
		// island-only aggregation IS model averaging over the island's q
		// replicas, so w tracks the island mean between outer exchanges.
		e.gpInner = cfg.GammaP * float64(p) / float64(e.hier.IslandSize(rank))
		e.outerLeft = cfg.TOuter
	}
	e.codec = newCodecState(cfg, m)
	e.delayed = cfg.DelayedApply && len(e.segs) > 0
	// Overlap needs a collective the bucketed worker implements: any
	// codec, or the tree family (only the dense ring keeps the serial
	// schedule). Hierarchical and delayed boundaries launch on their own
	// schedule.
	if cfg.OverlapComm && (e.codec != nil || cfg.Allreduce != AllreduceRing) &&
		e.hier == nil && !e.delayed && len(e.segs) > 0 {
		e.initOverlap(net, minLayer)
	}
	// The bucketed worker carries every overlapped or delayed launch and
	// every codec collective (the codecs own the per-bucket schedule).
	if (e.overlap || e.delayed || e.codec != nil) && len(e.segs) > 0 {
		e.b = comm.NewBucketedAllreduce(group, rank, e.segs, 0)
		e.handles = make([]comm.Handle, len(e.segs))
	}
	if e.delayed {
		e.pend = make([]float64, m)
		e.dsync = &comm.DeferSync{}
		e.b.SetDeferSync(e.dsync)
	} else if e.hier != nil && e.codec != nil {
		// The eager compressed outer exchange decodes into pend too.
		e.pend = make([]float64, m)
	}
	return e
}

// onBoundary runs one communication boundary for this learner: params is
// the local replica (reset to the appropriate reference on return), and
// the engine's current accumulator eng.gs holds the interval's gradient
// sum (cleared on return).
func (e *schedEngine) onBoundary(params []float64) {
	if e.fc != nil {
		// Drift against the reference params was reset to at the last
		// boundary: the island working reference under a hierarchy, the
		// global reference otherwise.
		ref := e.xref
		if e.hier != nil {
			ref = e.w
		}
		e.fc.boundaryStart(params, ref)
	}
	switch {
	case e.hier != nil:
		e.hierBoundary(params)
	case e.delayed:
		e.delayedFlat(params)
	default:
		e.flatEager(params)
	}
	e.bidx++
}

// flatEager is Algorithm 1's boundary — allreduce gs, x′ ← x′ − γp·gs,
// x ← x′, gs ← 0 — with the T-scheduler's drift step spliced between
// the reference update and the replica reset (where x̄ = x′ exactly).
// Under the static schedule the drift step is a no-op. Compressed runs
// launch every bucket's codec collective at once; overlapped runs
// launched theirs from inside backward and only wait here.
func (e *schedEngine) flatEager(params []float64) {
	g, rank, tk := e.group, e.rank, e.tk
	ws := tk.Begin()
	switch {
	case e.overlap:
		e.waitHandles()
	case e.codec != nil:
		e.launch(e.gs, g.Clock(rank).Now())
		e.waitHandles()
	default:
		e.cfg.allreduce(g, rank, e.gs)
	}
	tk.End(obs.PhaseAggWait, ws)
	if e.cfg.AggHook != nil && rank == 0 && e.codec == nil {
		e.cfg.AggHook(e.bidx, e.gs)
	}
	as := tk.Begin()
	tensor.Axpy(-e.cfg.GammaP, e.gs, e.xref)
	e.sched.advance(g, rank, e.p, params, e.xref)
	tensor.Copy(params, e.xref)
	clear(e.gs)
	tk.End(obs.PhaseAggApply, as)
	e.codec.adapt(g, rank)
	e.fc.boundaryEnd(g, rank, e.sched.T(), e.codec)
}

// delayedFlat is the DaSGD boundary: apply the PREVIOUS boundary's
// aggregate (in flight since then, now complete), then launch this
// boundary's gs through the worker and swap it with the freed pending
// buffer. The launched collective runs while the learners compute the
// next interval, so the transfer hides behind T full batches.
func (e *schedEngine) delayedFlat(params []float64) {
	g, rank, tk := e.group, e.rank, e.tk
	applied := e.inflight
	ws := tk.Begin()
	e.drainHandles()
	tk.End(obs.PhaseAggWait, ws)
	as := tk.Begin()
	if applied {
		if e.cfg.AggHook != nil && rank == 0 && e.codec == nil {
			e.cfg.AggHook(e.pendAt, e.pend)
		}
		tensor.Axpy(-e.cfg.GammaP, e.pend, e.xref)
		clear(e.pend)
	}
	e.sched.advance(g, rank, e.p, params, e.xref)
	tensor.Copy(params, e.xref)
	tk.End(obs.PhaseAggApply, as)
	if applied {
		e.codec.adapt(g, rank)
	}
	e.fc.boundaryEnd(g, rank, e.sched.T(), e.codec)
	e.launch(e.gs, g.Clock(rank).Now())
	e.gs, e.pend = e.pend, e.gs
	e.pendAt = e.bidx
	e.inflight = true
	e.waited = false
}

// hierBoundary runs the two-level schedule: the intra-island allreduce
// and island-mean update every boundary, the cross-island exchange every
// TOuter-th boundary (eager or delayed). The replica resets to the
// island working reference w, which rebases onto the global reference
// whenever an outer exchange lands.
func (e *schedEngine) hierBoundary(params []float64) {
	g, rank, tk := e.group, e.rank, e.tk
	// An outer exchange launched at the previous boundary must finish
	// before ANY learner collective reuses the mailboxes: the fabric
	// matches messages by (from, to) alone, so an in-flight fan-out would
	// alias against this boundary's intra allreduce (or the adaptive
	// scheduler's drift allreduce). Draining here bounds the hiding
	// window to one inner interval of compute; the APPLICATION still
	// waits for the next outer boundary.
	if e.delayed {
		ws := tk.Begin()
		e.drainHandles()
		tk.End(obs.PhaseAggWait, ws)
	}
	ws := tk.Begin()
	e.hier.AllreduceIntra(rank, e.gs, e.hchunk, g.Clock(rank).Now())
	tk.End(obs.PhaseAggWait, ws)
	as := tk.Begin()
	tensor.Axpy(1, e.gs, e.acc)
	tensor.Axpy(-e.gpInner, e.gs, e.w)
	tk.End(obs.PhaseAggApply, as)
	e.outerLeft--
	launch := false
	if e.outerLeft == 0 {
		e.outerLeft = e.cfg.TOuter
		if e.delayed {
			e.hierOuterDelayed()
			launch = true
		} else {
			e.hierOuterEager()
		}
	}
	as = tk.Begin()
	e.sched.advance(g, rank, e.p, params, e.w)
	tensor.Copy(params, e.w)
	clear(e.gs)
	tk.End(obs.PhaseAggApply, as)
	e.fc.boundaryEnd(g, rank, e.sched.T(), e.codec)
	// Launch the staged outer exchange only after every learner
	// collective of this boundary has run; it is drained at the top of
	// the next boundary, so the channels are exclusively the worker's for
	// exactly the compute interval in between.
	if launch {
		e.launch(e.pend, g.Clock(rank).Now())
		e.inflight = true
		e.waited = false
	}
}

// hierOuterEager exchanges acc across islands now and folds it into the
// global reference: x′ ← x′ − γp·acc, w ← x′, acc ← 0. Dense runs use
// the leader tree + island fan-out; compressed runs run the codec over
// the FULL group with the leaders contributing acc and everyone else
// zeros, so each island's aggregate is counted exactly once and every
// rank ends holding the dense decoded global value (a zero contribution
// leaves a zero error-feedback residual, so non-leaders stay exact).
func (e *schedEngine) hierOuterEager() {
	g, rank, tk := e.group, e.rank, e.tk
	ws := tk.Begin()
	agg := e.acc
	if e.codec != nil {
		agg = e.pend
		if e.hier.IsLeader(rank) {
			tensor.Copy(agg, e.acc)
		} else {
			clear(agg)
		}
		e.launch(agg, g.Clock(rank).Now())
		e.waitHandles()
	} else {
		e.hier.AllreduceInter(rank, agg, e.hchunk, g.Clock(rank).Now())
	}
	tk.End(obs.PhaseAggWait, ws)
	as := tk.Begin()
	tensor.Axpy(-e.cfg.GammaP, agg, e.xref)
	tensor.Copy(e.w, e.xref)
	clear(e.acc)
	tk.End(obs.PhaseAggApply, as)
	e.codec.adapt(g, rank)
}

// hierOuterDelayed applies the outer exchange launched at the previous
// outer boundary (already drained — only the application was deferred),
// rebases w on the updated global reference, then stages this round's
// acc into the pending buffer. The caller launches the staged exchange
// after the boundary's remaining learner collectives, so the transfer
// hides behind the following interval of compute.
func (e *schedEngine) hierOuterDelayed() {
	rank, tk := e.rank, e.tk
	applied := e.inflight
	ws := tk.Begin()
	e.drainHandles()
	tk.End(obs.PhaseAggWait, ws)
	as := tk.Begin()
	if applied {
		tensor.Axpy(-e.cfg.GammaP, e.pend, e.xref)
	}
	tensor.Copy(e.w, e.xref)
	if e.codec != nil && !e.hier.IsLeader(rank) {
		clear(e.pend)
	} else {
		tensor.Copy(e.pend, e.acc)
	}
	clear(e.acc)
	tk.End(obs.PhaseAggApply, as)
	if applied {
		e.codec.adapt(e.group, rank)
	}
}

// launch submits every bucket of buf through the worker in descending
// index order — the same fixed global order the backward hooks produce.
func (e *schedEngine) launch(buf []float64, ready float64) {
	for bi := len(e.segs) - 1; bi >= 0; bi-- {
		e.launchBucket(bi, buf, ready)
	}
}

// launchBucket submits bucket bi of buf with the policy's collective:
// the codec when compressing, the inter-island exchange under a
// hierarchy, else the configured dense tree/rhd.
func (e *schedEngine) launchBucket(bi int, buf []float64, ready float64) {
	switch {
	case e.codec != nil:
		e.handles[bi] = e.b.BeginCompressed(bi, buf, e.codec.res, e.codec.comp, e.codec.ratio, ready)
	case e.hier != nil:
		e.handles[bi] = e.b.BeginHierInter(bi, buf, e.hier, e.chunk, ready)
	case e.cfg.Allreduce == AllreduceRHD:
		e.handles[bi] = e.b.BeginRHD(bi, buf, ready)
	default:
		e.handles[bi] = e.b.Begin(bi, buf, e.chunk, ready)
	}
}

// waitHandles blocks until every launched bucket has completed (eager
// uses of the worker: launched this boundary or during its batch).
func (e *schedEngine) waitHandles() {
	for i := range e.handles {
		e.handles[i].Wait()
	}
}

// drainHandles waits out the in-flight delayed launch, if one exists and
// has not been drained yet, and folds its deferred clock syncs into the
// rank's simulated clock. Waiting touches only this rank's handles — no
// group collective — so call sites need no cross-rank alignment.
func (e *schedEngine) drainHandles() {
	if !e.inflight || e.waited {
		return
	}
	for i := range e.handles {
		e.handles[i].Wait()
	}
	e.dsync.Join(e.group.Clock(e.rank))
	e.waited = true
}

// drain is called before every epoch barrier: a delayed launch must not
// stay in flight across a learner-driven collective, because the worker
// and the learner would race for the same per-pair mailboxes. The
// pending aggregate stays pending — only the transfer is waited out —
// so the one-boundary-delay semantics are unchanged; the epoch edge just
// stops hiding whatever tail of the transfer was still outstanding.
func (e *schedEngine) drain() {
	if !e.delayed {
		return
	}
	ws := e.tk.Begin()
	e.drainHandles()
	e.tk.End(obs.PhaseAggWait, ws)
}

// flush applies a still-pending delayed aggregate and resets the replica
// to the resulting reference, leaving the run globally consistent for
// final evaluation. Local steps taken since the last boundary are
// discarded by the reset, exactly as a boundary discards them.
func (e *schedEngine) flush(params []float64) {
	if !e.delayed || !e.inflight {
		return
	}
	tk := e.tk
	ws := tk.Begin()
	e.drainHandles()
	tk.End(obs.PhaseAggWait, ws)
	as := tk.Begin()
	if e.cfg.AggHook != nil && e.rank == 0 && e.codec == nil && e.hier == nil {
		e.cfg.AggHook(e.pendAt, e.pend)
	}
	tensor.Axpy(-e.cfg.GammaP, e.pend, e.xref)
	clear(e.pend)
	if e.hier != nil {
		tensor.Copy(e.w, e.xref)
		tensor.Copy(params, e.w)
	} else {
		tensor.Copy(params, e.xref)
	}
	tk.End(obs.PhaseAggApply, as)
	e.inflight = false
}

// close shuts down the comm worker, if any.
func (e *schedEngine) close() {
	if e.b != nil {
		e.b.Close()
	}
}
