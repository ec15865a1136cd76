// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the real training algorithms (and,
// for the timing figures, the fabric simulator) at the reduced scale
// described in DESIGN.md §6, returns a structured result, and can print
// the same rows/series the paper reports. The drivers are shared by
// cmd/experiments (the full reproduction binary), the examples, the
// test suite, and the top-level benchmark harness.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/netsim"
	"sasgd/internal/nn"
)

// Workload bundles one of the paper's two applications at reduced scale
// together with the paper-scale cost profile the simulator charges.
type Workload struct {
	Name string
	// Problem is the reduced-scale training problem actually executed.
	Problem *core.Problem
	// PaperCost is the computational footprint of the paper-scale model
	// (Table I / Table II), used by the fabric simulator.
	PaperCost model.Cost
	// SmallParams is the executed model's parameter count; the ratio
	// PaperCost.Params/SmallParams rescales simulated message sizes.
	SmallParams int
	// Batch is the minibatch size M used by the convergence experiments
	// (reduced-scale stand-in for the paper's 64 on CIFAR-10; 1 for
	// NLC-F as in the paper).
	Batch int
	// TimingBatch is the minibatch size the timing figures run with —
	// the paper's exact M, since simulated time is charged at paper
	// scale (0 selects Batch).
	TimingBatch int
	// Gamma is the calibrated practical learning rate standing in for
	// the paper's γ = 0.1 at this scale.
	Gamma float64
	// Epochs is the default figure epoch budget at reduced scale
	// (standing in for the paper's 100 / 200).
	Epochs int
}

// Scale selects reduced-scale (the default everywhere; minutes on a
// laptop) or paper-scale (the exact published sizes; CPU-days in pure
// Go — provided for completeness and spot checks) workloads.
type Scale int

// The available scales.
const (
	ScaleSmall Scale = iota // reduced-scale (DESIGN.md §6)
	ScalePaper              // the paper's exact dataset and model sizes
)

// Paper-scale network costs, computed once per process: the cost is a
// function of the architecture alone, and building a paper-scale
// network just to walk its layers allocates every weight (16 MB for
// Table I, 55 MB for Table II).
var (
	paperCIFARCost = sync.OnceValue(func() model.Cost {
		return model.NetworkCost(model.NewCIFARNet(rand.New(rand.NewSource(1)), model.PaperCIFARConfig()))
	})
	paperNLCFCost = sync.OnceValue(func() model.Cost {
		return model.NetworkCost(model.NewNLCFNet(rand.New(rand.NewSource(1)), model.PaperNLCFConfig()))
	})
)

// ImageWorkload builds the CIFAR-10-like workload (Table I network) at
// reduced scale.
func ImageWorkload() *Workload { return ImageWorkloadAt(ScaleSmall) }

// ImageWorkloadAt builds the CIFAR-10-like workload at the given scale.
func ImageWorkloadAt(scale Scale) *Workload {
	imgCfg := data.SmallImageConfig()
	netCfg := model.SmallCIFARConfig()
	batch, epochs := 16, 20
	if scale == ScalePaper {
		imgCfg = data.PaperImageConfig()
		netCfg = model.PaperCIFARConfig()
		batch, epochs = 64, 100
	}
	train, test := data.GenImages(imgCfg)
	smallCfg := netCfg
	prob := &core.Problem{
		Name: "cifar10-synth",
		Model: func(seed int64) *nn.Network {
			return model.NewCIFARNet(rand.New(rand.NewSource(seed)), smallCfg)
		},
		Train: train,
		Test:  test,
	}
	small := prob.Model(1)
	return &Workload{
		Name:        "CIFAR-10",
		Problem:     prob,
		PaperCost:   paperCIFARCost(),
		SmallParams: small.NumParams(),
		Batch:       batch, // reduced scale stands in for the paper's M = 64
		TimingBatch: 64,    // the paper's M, used by the simulated-timing runs
		Gamma:       0.1,   // the paper's practical rate
		Epochs:      epochs,
	}
}

// TextWorkload builds the NLC-F-like workload (Table II network) at
// reduced scale.
func TextWorkload() *Workload { return TextWorkloadAt(ScaleSmall) }

// TextWorkloadAt builds the NLC-F-like workload at the given scale.
func TextWorkloadAt(scale Scale) *Workload {
	txtCfg := data.SmallTextConfig()
	netCfg := model.SmallNLCFConfig()
	gamma, epochs := 0.06, 40
	if scale == ScalePaper {
		txtCfg = data.PaperTextConfig()
		netCfg = model.PaperNLCFConfig()
		gamma, epochs = 0.1, 200
	}
	train, test := data.GenText(txtCfg)
	smallCfg := netCfg
	prob := &core.Problem{
		Name: "nlcf-synth",
		Model: func(seed int64) *nn.Network {
			return model.NewNLCFNet(rand.New(rand.NewSource(seed)), smallCfg)
		},
		Train: train,
		Test:  test,
	}
	small := prob.Model(1)
	return &Workload{
		Name:        "NLC-F",
		Problem:     prob,
		PaperCost:   paperNLCFCost(),
		SmallParams: small.NumParams(),
		Batch:       1,     // the paper's M = 1 for NLC-F
		Gamma:       gamma, // reduced scale stands in for the paper's 0.1
		Epochs:      epochs,
	}
}

// Opt carries cross-cutting driver options. The zero value selects each
// figure's defaults.
type Opt struct {
	// Epochs overrides the figure's epoch budget (0 = figure default).
	Epochs int
	// Ps overrides the learner counts swept (nil = figure default).
	Ps []int
	// Ts overrides the aggregation intervals swept (nil = figure
	// default).
	Ts []int
	// Seed offsets all run seeds for replication studies.
	Seed int64
	// Replicas averages each convergence run over this many seeds
	// (default 1). The asynchronous baselines are nondeterministic and
	// the reduced-scale curves are noisy; the paper's full-scale curves
	// are intrinsically smoother.
	Replicas int
	// Out receives the rendered table/series (nil = no printing).
	Out io.Writer
	// TracePath, when non-empty, makes the tracing-aware drivers
	// (TracedOverlap) export their Chrome trace-event JSON there.
	TracePath string
	// DebugAddr, when non-empty, serves the live /debug/obs endpoint on
	// this address for the duration of the traced runs.
	DebugAddr string
	// Metrics attaches a fleet metrics registry to the metrics-aware
	// drivers (TracedOverlap): per-boundary drift/T telemetry and the
	// per-rank simulated compute/communication split are collected and
	// printed, and served live on /debug/obs with DebugAddr.
	Metrics bool
}

func (o Opt) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

func (o Opt) epochs(def int) int {
	if o.Epochs > 0 {
		return o.Epochs
	}
	return def
}

func (o Opt) ps(def []int) []int {
	if len(o.Ps) > 0 {
		return o.Ps
	}
	return def
}

func (o Opt) replicas() int {
	if o.Replicas > 0 {
		return o.Replicas
	}
	return 1
}

func (o Opt) ts(def []int) []int {
	if len(o.Ts) > 0 {
		return o.Ts
	}
	return def
}

// SimConfig builds a per-run fabric simulation for p learners charging
// paper-scale costs for this workload (message sizes are rescaled by the
// paper-to-executed parameter ratio).
func (w *Workload) SimConfig(p int) *netsim.Sim {
	cfg := netsim.DefaultConfig()
	cfg.WordFactor = float64(w.PaperCost.Params) / float64(w.SmallParams)
	return netsim.New(p, cfg)
}

// newSim builds a per-run fabric simulation charging paper-scale costs
// for the given workload.
func newSim(w *Workload, p int) *netsim.Sim {
	return w.SimConfig(p)
}

// trainCfg assembles a core.Config for one run of this workload.
func (w *Workload) trainCfg(algo core.Algorithm, p, t, epochs int, opt Opt) core.Config {
	return core.Config{
		Algo:     algo,
		Learners: p,
		Interval: t,
		Batch:    w.Batch,
		Gamma:    w.Gamma,
		Epochs:   epochs,
		Seed:     1 + opt.Seed,
	}
}

// simCfg is trainCfg plus an attached fabric simulation; it runs at the
// paper's minibatch size so the simulated schedule matches the paper's.
func (w *Workload) simCfg(algo core.Algorithm, p, t, epochs int, opt Opt) core.Config {
	cfg := w.trainCfg(algo, p, t, epochs, opt)
	if w.TimingBatch > 0 {
		cfg.Batch = w.TimingBatch
	}
	cfg.Sim = newSim(w, p)
	cfg.FlopsPerSample = w.PaperCost.TrainFlopsPerSample
	return cfg
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
