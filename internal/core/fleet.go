package core

import (
	"strconv"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
	"sasgd/internal/nn"
	obsmetrics "sasgd/internal/obs/metrics"
)

// Fleet-health collection for the SASGD trainers. Each learner owns one
// fleetCollector; at every aggregation boundary it encodes its slot of a
// fixed-size health frame — drift, effective T, phase timings, the
// simulated compute/communication split, compression capture — and the
// group sums the frames with one extra tree allreduce (disjoint slots,
// so the sum IS the concatenation; see metrics/frame.go). Whichever rank
// is virtual rank 0 of the current group then holds every live rank's
// frame and ingests the fleet view: gauges, the drift time series, the
// NDJSON event log, the straggler detector, and the comm-layer traffic
// and fault gauges sampled through the group's alloc-free accessors.
//
// The frame rides its own buffer and never touches gradient state, so
// enabling metrics cannot change training values (pinned bitwise in
// metrics_test.go). It does add traffic — exactly FrameTrafficWords(p)
// words per fault-free boundary, also pinned — and on a simulated fabric
// that traffic is charged to the clocks like any other collective, so
// simulated times shift while results do not.
//
// A nil collector (metrics off) makes every method a nil-check no-op,
// the same contract as the obs tracer's disabled path.
type fleetCollector struct {
	reg   *obsmetrics.Registry
	fleet *obsmetrics.Fleet
	sim   *netsim.Sim
	rank  int // run-physical rank: this collector's frame slot
	p     int // run-physical rank count: the frame's slot count

	buf []float64 // FrameBuf(p), reused every boundary

	// Per-phase latency histograms, attached to the learner's network;
	// their summed ns double as the frame's compute signal on real-time
	// runs (the simulated split is the signal when a fabric is attached).
	hFwd, hBwd *obsmetrics.Histogram

	boundary    int
	driftSq     float64 // captured at boundaryStart, shipped at boundaryEnd
	lastWallNs  int64
	lastStepNs  float64 // hFwd+hBwd sum at the previous boundary
	lastSimComp float64
	lastSimComm float64
	lastFaults  int64
}

// newFleetCollector builds rank's collector, or nil when the run has no
// metrics registry. fleet is the shared fleet view (built once per run,
// before the learners start).
func newFleetCollector(cfg Config, rank, p int, fleet *obsmetrics.Fleet) *fleetCollector {
	if cfg.Metrics == nil {
		return nil
	}
	return &fleetCollector{
		reg:        cfg.Metrics,
		fleet:      fleet,
		sim:        cfg.Sim,
		rank:       rank,
		p:          p,
		buf:        obsmetrics.FrameBuf(p),
		lastWallNs: cfg.Metrics.Now(),
	}
}

// attach registers the learner's per-rank phase histograms and wires
// them into the network's step hooks.
func (c *fleetCollector) attach(net *nn.Network) {
	if c == nil {
		return
	}
	r := strconv.Itoa(c.rank)
	c.hFwd = c.reg.Histogram("sasgd_forward_ns", nil, "rank", r)
	c.hBwd = c.reg.Histogram("sasgd_backward_ns", nil, "rank", r)
	net.SetMetrics(c.hFwd, c.hBwd)
}

// boundaryStart captures the interval's replica drift ‖x − ref‖². Called
// at boundary entry, BEFORE any of the boundary's collectives: ref (the
// global reference x′, or the island working reference w under a
// hierarchy) still holds the value params was reset to at the previous
// boundary, so the difference is exactly the drift the interval's local
// steps accumulated. Pure reads — the training state is untouched.
func (c *fleetCollector) boundaryStart(params, ref []float64) {
	if c == nil {
		return
	}
	var d float64
	for i, v := range params {
		dv := v - ref[i]
		d += dv * dv
	}
	c.driftSq = d
}

// boundaryEnd encodes the rank's health frame, sums frames across the
// group (one tree allreduce on the frame buffer — the only collective
// metrics adds), and, on the group's virtual rank 0, ingests the fleet
// view and samples the comm-layer gauges. Call it where a learner-driven
// collective is legal for the current path: after the boundary's own
// exchanges, and on the delayed paths BEFORE the next launch goes into
// flight (the worker and the learner must not share mailboxes).
//
// g and grank are the CURRENT group and the rank's virtual rank in it —
// under fault handling the membership view's survivor group, so dead
// ranks simply stop contributing and their frame slots stay zero. t is
// the period in effect and codec the run's codec state (nil = dense).
func (c *fleetCollector) boundaryEnd(g *comm.Group, grank, t int, codec *codecState) {
	if c == nil {
		return
	}
	// The codec's working ratio and cumulative captured/residual mass
	// (Totals, not TakeCapture — the adaptive controller consumes the
	// capture).
	var ratio, sent2, resid2 float64
	if codec != nil {
		ratio = codec.ratio
		sent2, resid2 = codec.comp.Totals()
	}
	now := c.reg.Now()
	wallNs := float64(now - c.lastWallNs)
	c.lastWallNs = now
	stepNs := c.hFwd.Sum() + c.hBwd.Sum()
	computeNs := stepNs - c.lastStepNs
	c.lastStepNs = stepNs
	var dComp, dComm float64
	if c.sim != nil {
		sc, sm := c.sim.Clock(c.rank).Split()
		dComp, dComm = sc-c.lastSimComp, sm-c.lastSimComm
		c.lastSimComp, c.lastSimComm = sc, sm
	}
	clear(c.buf)
	obsmetrics.Frame{
		Rank:       c.rank,
		Live:       true,
		Boundary:   c.boundary,
		T:          t,
		DriftSq:    c.driftSq,
		ComputeNs:  computeNs,
		WallNs:     wallNs,
		SimCompute: dComp,
		SimComm:    dComm,
		Ratio:      ratio,
		Sent2:      sent2,
		Resid2:     resid2,
	}.Encode(c.buf)
	g.AllreduceTree(grank, c.buf)
	c.boundary++
	if grank != 0 {
		return
	}
	c.fleet.Ingest(now, c.buf)
	c.sampleComm(g, now)
}

// sampleComm publishes the group's traffic and fault counters into
// gauges and emits a fault event when the fault counters moved since the
// previous boundary. Registry lookups here are boundary-rate, not
// hot-path, so going through the interning front door is fine.
func (c *fleetCollector) sampleComm(g *comm.Group, now int64) {
	words, cross, hintra, hinter := g.TrafficTotals()
	c.reg.Gauge("sasgd_comm_words").SetInt(words)
	c.reg.Gauge("sasgd_comm_cross_words").SetInt(cross)
	c.reg.Gauge("sasgd_comm_hintra_words").SetInt(hintra)
	c.reg.Gauge("sasgd_comm_hinter_words").SetInt(hinter)
	f := g.FaultCounts()
	if sum := f.Sum(); sum != c.lastFaults {
		c.reg.Gauge("sasgd_fault_drops").SetInt(f.Drops)
		c.reg.Gauge("sasgd_fault_retries").SetInt(f.Retries)
		c.reg.Gauge("sasgd_fault_timeouts").SetInt(f.Timeouts)
		c.reg.Gauge("sasgd_fault_evictions").SetInt(f.Evictions)
		c.reg.Gauge("sasgd_fault_reforms").SetInt(f.Reforms)
		c.reg.Gauge("sasgd_fault_crashes").SetInt(f.Crashes)
		c.reg.Emit(obsmetrics.Event{
			TNs:      now,
			Type:     obsmetrics.EventFault,
			Boundary: c.boundary - 1,
			Value:    float64(sum - c.lastFaults),
			Note:     "fault counters moved",
		})
		c.lastFaults = sum
	}
}

// newFleet builds the run's shared fleet view on the registry, or nil
// when metrics are off.
func newFleet(cfg Config, p int) *obsmetrics.Fleet {
	if cfg.Metrics == nil {
		return nil
	}
	return obsmetrics.NewFleet(cfg.Metrics, p)
}
