package core

import "sasgd/internal/comm"

// Core-side wiring of the gradient-compression engine (comm.Compressor):
// codec construction from the Config and the adaptive-sparsity
// controller.
//
// Compressed aggregation never takes a serial whole-vector fallback:
// both SASGD paths split the gradient with the planBuckets plan and run
// one codec collective per bucket, in descending bucket order. The
// fault-free loop runs them through the bucketed worker — from inside
// backward when OverlapComm is set, all at once at the boundary
// otherwise; the resilient path drives them synchronously, because its
// group membership can change between boundaries (the bucketed worker
// assumes a fixed group). Per-bucket codec collectives are independent
// and deterministic (the top-k tree merges in fixed order, the qint8
// integer sums are exact), so every schedule is bitwise identical —
// pinned in compress_test.go.

// Adaptive sparsity (the Deng et al. adaptive-sparse direction): hold
// the globally captured gradient-mass fraction sent²/(sent²+resid²)
// inside [adaptLowCapture, adaptHighCapture]. Below the band the
// selection is missing too much mass — grow k; above it the selection
// is paying for mass the residual would have carried fine — shrink k.
// The working fraction is clamped to [k0/adaptSpan, k0·adaptSpan]
// (and ≤ 1) around the configured k0, so one noisy interval can never
// collapse the wire or blow it open.
const (
	adaptLowCapture  = 0.50
	adaptHighCapture = 0.90
	adaptGrow        = 4.0 / 3
	adaptShrink      = 3.0 / 4
	adaptSpan        = 8.0
)

// nextRatio is one controller step. Pure and deterministic: every
// learner feeds it the identical allreduced stats and the identical
// current ratio, so the working fraction stays in lockstep across the
// group without any extra coordination.
func nextRatio(ratio, k0, sent2, resid2 float64) float64 {
	total := sent2 + resid2
	if total <= 0 {
		return ratio
	}
	switch frac := sent2 / total; {
	case frac < adaptLowCapture:
		ratio *= adaptGrow
	case frac > adaptHighCapture:
		ratio *= adaptShrink
	}
	lo, hi := k0/adaptSpan, k0*adaptSpan
	if hi > 1 {
		hi = 1
	}
	if ratio < lo {
		ratio = lo
	} else if ratio > hi {
		ratio = hi
	}
	return ratio
}

// codecState is one learner's compression-engine state, shared by the
// fault-free engine and the resilient path: the learner's private codec
// (codecs carry selection scratch, encode buffers and capture
// statistics, so they are never shared across ranks), its
// error-feedback residual, and the working top-k fraction — k0 until
// CompressAdapt moves it, in lockstep on every learner. A nil
// *codecState is a dense run.
type codecState struct {
	comp     comm.Compressor
	res      []float64
	ratio    float64
	k0       float64
	adaptOn  bool
	adaptBuf [2]float64
}

// newCodecState returns the state for an m-word gradient, or nil when
// the run aggregates dense (withDefaults has already normalized
// CompressK ≥ 1 to the dense path). Only top-k adapts: qint8 has no
// sparsity knob to steer.
func newCodecState(cfg Config, m int) *codecState {
	if cfg.Compress == "" {
		return nil
	}
	return &codecState{
		comp:    comm.NewCompressor(cfg.Compress),
		res:     make([]float64, m),
		ratio:   cfg.CompressK,
		k0:      cfg.CompressK,
		adaptOn: cfg.CompressAdapt && cfg.Compress == CodecTopK,
	}
}

// adapt runs one adaptive-sparsity controller step after an aggregation
// has been applied: allreduce the codec's capture stats over g so every
// learner computes the identical next working fraction. No-op unless
// CompressAdapt is on for a top-k run.
func (c *codecState) adapt(g *comm.Group, rank int) {
	if c == nil || !c.adaptOn {
		return
	}
	c.adaptBuf[0], c.adaptBuf[1] = c.comp.TakeCapture()
	g.AllreduceTree(rank, c.adaptBuf[:])
	c.ratio = nextRatio(c.ratio, c.k0, c.adaptBuf[0], c.adaptBuf[1])
}

// finalK is Result.CompressK: the final working top-k fraction, zero
// for dense and qint8 runs.
func (c *codecState) finalK() float64 {
	if c == nil || c.comp.Name() != CodecTopK {
		return 0
	}
	return c.ratio
}
