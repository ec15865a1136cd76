package main

import (
	"fmt"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/experiments"
)

// The baseline seed is the one the workloads were tuned on; a claimed
// gain must also hold on the held-out seed, which was not looked at
// while choosing targets and floors.
const (
	baselineSeed = 1
	heldOutSeed  = 1009
)

// workload is one benchmark configuration: a reduced-scale problem
// from internal/experiments and the core.Config fields it runs with.
// Fields left out keep the core.Config defaults.
type workload struct {
	name, why string
	text      bool // NLC-F (experiments.TextWorkload), else CIFAR (ImageWorkload)
	algo      core.Algorithm
	p, t      int
	workers   int // per-learner kernel workers (core.Config.Workers)
	epochs    int
	overlap   bool
	delayed   bool
	compress  string
	tcp       bool // carry frames over comm.NewTCPLoopback
	// target is the test accuracy whose first crossing ends
	// time_to_target_s; floor is the lowest acceptable final test
	// accuracy. Both sit well below every seed's curve (README.md),
	// and the target below the floor, so a correct run reaches it.
	target, floor float64
}

var workloads = []*workload{
	{
		name: "cifar-sgd-p1", why: "single-worker baseline: tensor, nn and parallel do all the work, comm none",
		algo: core.AlgoSGD, p: 1, t: 1, workers: 2, epochs: 6,
		target: 0.40, floor: 0.60,
	},
	{
		name: "cifar-sasgd-p2-T1-overlap", why: "compute-heavy SASGD with bucketed allreduce launched from inside backward",
		algo: core.AlgoSASGD, p: 2, t: 1, workers: 1, epochs: 6, overlap: true,
		target: 0.40, floor: 0.60,
	},
	{
		name: "nlcf-sasgd-p2-T1-tcp", why: "latency-bound SASGD over TCP loopback: wire codec, sockets and tree collective dominate",
		text: true, algo: core.AlgoSASGD, p: 2, t: 1, workers: 1, epochs: 6, tcp: true,
		target: 0.35, floor: 0.45,
	},
	{
		name: "nlcf-sasgd-p2-T4-topk-delayed", why: "top-k sparse codec collectives every 4 steps on the scheduled delayed-apply loop",
		text: true, algo: core.AlgoSASGD, p: 2, t: 4, workers: 1, epochs: 8, delayed: true, compress: core.CodecTopK,
		target: 0.35, floor: 0.45,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is one constructed workload: the problem and, for the TCP
// workload, its loopback transport.
type instance struct {
	ex *experiments.Workload
	tr *comm.TCPTransport
}

// setup constructs the workload the way a user of the trainer does
// before calling core.Train, and returns how long that took.
func (w *workload) setup() (*instance, time.Duration, error) {
	start := time.Now()
	in := &instance{}
	if w.text {
		in.ex = experiments.TextWorkload()
	} else {
		in.ex = experiments.ImageWorkload()
	}
	if w.tcp {
		tr, err := comm.NewTCPLoopback(w.p)
		if err != nil {
			return nil, 0, fmt.Errorf("tcp loopback: %w", err)
		}
		in.tr = tr
	}
	return in, time.Since(start), nil
}

func (in *instance) close() {
	if in.tr != nil {
		// Close only tears down sockets of a finished run; nothing to report.
		_ = in.tr.Close()
	}
}

// config returns the run's explicit core.Config.
func (w *workload) config(in *instance, seed int64) core.Config {
	cfg := core.Config{
		Algo:         w.algo,
		Learners:     w.p,
		Interval:     w.t,
		Batch:        in.ex.Batch,
		Gamma:        in.ex.Gamma,
		Epochs:       w.epochs,
		Seed:         seed,
		Workers:      w.workers,
		OverlapComm:  w.overlap,
		DelayedApply: w.delayed,
		Compress:     w.compress,
	}
	if in.tr != nil {
		cfg.Transport = in.tr
	}
	return cfg
}

// stepsPerLearner is the number of minibatch steps each learner takes
// over the run.
func (w *workload) stepsPerLearner(in *instance) int {
	perLearner := (in.ex.Problem.Train.Len() + w.p - 1) / w.p
	return w.epochs * ((perLearner + in.ex.Batch - 1) / in.ex.Batch)
}
