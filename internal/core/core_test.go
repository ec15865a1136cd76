package core

import (
	"math"
	"math/rand"
	"testing"

	"runtime"
	"sync"

	"sasgd/internal/data"
	"sasgd/internal/metrics"
	"sasgd/internal/model"
	"sasgd/internal/netsim"
	"sasgd/internal/nn"
	"sasgd/internal/tensor"
)

// tinyProblem builds a fast, easily separable 4-feature, 3-class problem
// with a one-layer linear model — enough structure for every algorithm
// to reach high accuracy in a few epochs, small enough that the whole
// core test suite runs in well under a second.
func tinyProblem(nTrain, nTest int, seed int64) *Problem {
	gen := func(n int, seed int64) *data.Dataset {
		rng := rand.New(rand.NewSource(seed))
		d := &data.Dataset{
			X:           tensor.New(n, 4),
			Y:           make([]int, n),
			SampleShape: []int{4},
			Classes:     3,
		}
		for i := 0; i < n; i++ {
			k := rng.Intn(3)
			d.Y[i] = k
			for j := 0; j < 4; j++ {
				v := rng.NormFloat64() * 0.4
				if j == k {
					v += 2
				}
				d.X.Data[i*4+j] = v
			}
		}
		return d
	}
	return &Problem{
		Name: "tiny",
		Model: func(seed int64) *nn.Network {
			rng := rand.New(rand.NewSource(seed))
			return nn.NewNetwork([]int{4},
				nn.NewLinear(rng, 4, 8),
				nn.NewTanh(),
				nn.NewLinear(rng, 8, 3),
			)
		},
		Train: gen(nTrain, seed),
		Test:  gen(nTest, seed+1),
	}
}

func TestSGDLearnsTinyProblem(t *testing.T) {
	prob := tinyProblem(300, 100, 1)
	res := Train(Config{Algo: AlgoSGD, Gamma: 0.2, Batch: 10, Epochs: 15, Seed: 1}, prob)
	if res.FinalTest < 0.9 {
		t.Errorf("SGD final test accuracy %.3f, want > 0.9", res.FinalTest)
	}
	if res.Samples != 15*300 {
		t.Errorf("Samples = %d, want %d", res.Samples, 15*300)
	}
	if len(res.Curve) != 15 {
		t.Errorf("curve has %d points, want 15", len(res.Curve))
	}
	if res.P != 1 {
		t.Errorf("P = %d", res.P)
	}
}

func TestAllAlgorithmsLearn(t *testing.T) {
	prob := tinyProblem(300, 100, 2)
	for _, algo := range []Algorithm{AlgoSGD, AlgoSASGD, AlgoDownpour, AlgoEAMSGD} {
		res := Train(Config{Algo: algo, Learners: 4, Interval: 3, Gamma: 0.1, Batch: 10, Epochs: 15, Seed: 1}, prob)
		if res.FinalTest < 0.85 {
			t.Errorf("%s: final test accuracy %.3f, want > 0.85", algo, res.FinalTest)
		}
		if res.FinalParams == nil {
			t.Errorf("%s: FinalParams not captured", algo)
		}
	}
}

func TestSGDDeterministic(t *testing.T) {
	prob := tinyProblem(100, 50, 3)
	cfg := Config{Algo: AlgoSGD, Gamma: 0.2, Batch: 10, Epochs: 5, Seed: 7}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatal("identical SGD configs produced different parameters")
		}
	}
	for i := range a.Curve {
		if a.Curve[i].Train != b.Curve[i].Train || a.Curve[i].Test != b.Curve[i].Test {
			t.Fatal("identical SGD configs produced different curves")
		}
	}
}

func TestSASGDDeterministic(t *testing.T) {
	// SASGD is bulk-synchronous: unlike the asynchronous baselines its
	// result must not depend on goroutine scheduling.
	prob := tinyProblem(120, 50, 4)
	cfg := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 4, Seed: 5}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatal("SASGD result depends on scheduling")
		}
	}
}

func TestSASGDReplicasConsistentAfterFullRun(t *testing.T) {
	// When T divides the total batch count, the run ends right after an
	// aggregation, so learner 0's replica must equal the reference
	// parameters — and a re-run with the ring collective must agree
	// exactly with the tree (both compute the same sums, modulo
	// floating-point association; tolerance covers that).
	prob := tinyProblem(160, 50, 6)
	base := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 4, Seed: 5}
	tree := Train(base, prob)
	ring := base
	ring.Allreduce = AllreduceRing
	rr := Train(ring, prob)
	for i := range tree.FinalParams {
		if math.Abs(tree.FinalParams[i]-rr.FinalParams[i]) > 1e-9 {
			t.Fatalf("tree and ring allreduce diverge at %d: %g vs %g", i, tree.FinalParams[i], rr.FinalParams[i])
		}
	}
}

func TestSASGDPipelinedTreeBitIdenticalToTree(t *testing.T) {
	// The chunked pipelined tree replays the monolithic tree's summation
	// order chunk by chunk, so a whole training run must agree *bitwise*
	// with the default tree — at any chunk size, including ones that
	// split the gradient vector unevenly. rhd reassociates, so it only
	// gets the ring's tolerance.
	prob := tinyProblem(160, 50, 6)
	base := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 4, Seed: 5}
	tree := Train(base, prob)
	for _, chunk := range []int{0, 1, 37} {
		cfg := base
		cfg.Allreduce = AllreducePTree
		cfg.CommChunk = chunk
		pt := Train(cfg, prob)
		for i := range tree.FinalParams {
			if tree.FinalParams[i] != pt.FinalParams[i] {
				t.Fatalf("chunk=%d: ptree diverges from tree at %d: %g vs %g",
					chunk, i, tree.FinalParams[i], pt.FinalParams[i])
			}
		}
	}
	cfg := base
	cfg.Allreduce = AllreduceRHD
	rhd := Train(cfg, prob)
	for i := range tree.FinalParams {
		if math.Abs(tree.FinalParams[i]-rhd.FinalParams[i]) > 1e-9 {
			t.Fatalf("tree and rhd allreduce diverge at %d: %g vs %g", i, tree.FinalParams[i], rhd.FinalParams[i])
		}
	}
}

func TestSASGDStalenessIsZeroByConstruction(t *testing.T) {
	prob := tinyProblem(120, 40, 7)
	res := Train(Config{Algo: AlgoSASGD, Learners: 4, Interval: 5, Gamma: 0.1, Batch: 10, Epochs: 3, Seed: 1}, prob)
	if res.StalenessMean != 0 || res.StalenessMax != 0 {
		t.Errorf("SASGD reported staleness %.2f/%d", res.StalenessMean, res.StalenessMax)
	}
}

func TestDownpourObservesStaleness(t *testing.T) {
	// 8 learners each pushing after every 2-sample batch: thousands of
	// concurrent server updates. If not a single one observes a foreign
	// update in between, the staleness accounting is broken — unless the
	// host runs goroutines on a single core, where short learner bodies
	// legitimately serialize (the semantics themselves are covered
	// deterministically in comm's server tests).
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("single-core host: learner goroutines serialize, no staleness to observe")
	}
	prob := tinyProblem(1600, 40, 8)
	res := Train(Config{Algo: AlgoDownpour, Learners: 8, Interval: 1, Gamma: 0.01, Batch: 2, Epochs: 5, Seed: 1}, prob)
	if res.StalenessMax == 0 {
		t.Error("8 concurrent Downpour learners observed no staleness at all")
	}
}

func TestSASGDWordsMovedMatchesCollectiveCount(t *testing.T) {
	prob := tinyProblem(80, 40, 9)
	p, T, batch, epochs := 4, 2, 10, 3
	res := Train(Config{Algo: AlgoSASGD, Learners: p, Interval: T, Gamma: 0.1, Batch: batch, Epochs: epochs, Seed: 1}, prob)
	m := len(res.FinalParams)
	// Per aggregation, the binomial allreduce moves 2(p−1)m words; the
	// initial broadcast moves (p−1)m.
	batchesPer := (80/p + batch - 1) / batch
	aggs := epochs * batchesPer / T
	want := int64((p - 1) * m * (2*aggs + 1))
	if res.WordsMoved != want {
		t.Errorf("WordsMoved = %d, want %d (%d aggregations)", res.WordsMoved, want, aggs)
	}
}

func TestGammaPDefaultIsModelAveraging(t *testing.T) {
	// With γp = γ/p (the default) and a single aggregation covering the
	// whole run, SASGD's final parameters must equal the average of what
	// p independent SGD runs over the same shards would produce. We
	// verify the arithmetic identity on a run with exactly one
	// aggregation interval spanning all batches.
	prob := tinyProblem(80, 40, 10)
	p, batch := 2, 10
	batchesPer := 80 / p / batch // 4
	cfg := Config{Algo: AlgoSASGD, Learners: p, Interval: batchesPer, Gamma: 0.1, Batch: batch, Epochs: 1, Seed: 3}
	res := Train(cfg, prob)

	// Replay: each learner trains alone (plain SGD) on its shard from the
	// broadcast initialization; average the displacements.
	shards := prob.Train.Partition(p)
	net0 := prob.Model(cfg.Seed + 0) // learner 0's replica (broadcast source)
	init := append([]float64(nil), net0.ParamData()...)
	avg := make([]float64, len(init))
	for rank := 0; rank < p; rank++ {
		net := prob.Model(cfg.Seed + int64(rank))
		net.SetParamData(init)
		sampler := data.NewEpochSampler(shards[rank].Len(), batch, cfg.Seed+int64(rank)*31+7)
		for b := 0; b < batchesPer; b++ {
			idx := sampler.Next()
			x, y := shards[rank].Batch(idx)
			net.Step(x, y)
			tensor.Axpy(-cfg.Gamma, net.GradData(), net.ParamData())
		}
		for i, v := range net.ParamData() {
			avg[i] += v / float64(p)
		}
	}
	for i := range avg {
		if math.Abs(res.FinalParams[i]-avg[i]) > 1e-9 {
			t.Fatalf("SASGD with default γp is not model averaging at %d: %g vs %g", i, res.FinalParams[i], avg[i])
		}
	}
}

func TestEvalEveryStridesCurve(t *testing.T) {
	prob := tinyProblem(100, 40, 11)
	res := Train(Config{Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.1, Batch: 10, Epochs: 6, Seed: 1, EvalEvery: 3}, prob)
	if len(res.Curve) != 2 {
		t.Fatalf("curve has %d points, want 2", len(res.Curve))
	}
	if res.Curve[0].Epoch != 3 || res.Curve[1].Epoch != 6 {
		t.Errorf("curve epochs %d, %d; want 3, 6", res.Curve[0].Epoch, res.Curve[1].Epoch)
	}
}

func TestSGDForcesSingleLearner(t *testing.T) {
	prob := tinyProblem(60, 20, 12)
	res := Train(Config{Algo: AlgoSGD, Learners: 8, Gamma: 0.1, Batch: 10, Epochs: 2, Seed: 1}, prob)
	if res.P != 1 {
		t.Errorf("SGD ran with P = %d", res.P)
	}
}

func TestSimulatedRunProducesTimings(t *testing.T) {
	prob := tinyProblem(100, 40, 13)
	sim := netsim.New(2, netsim.DefaultConfig())
	res := Train(Config{
		Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.1, Batch: 10,
		Epochs: 3, Seed: 1, Sim: sim, FlopsPerSample: 1e8,
	}, prob)
	if res.SimTime <= 0 || res.SimCompute <= 0 {
		t.Errorf("simulated run reported SimTime=%g SimCompute=%g", res.SimTime, res.SimCompute)
	}
	if res.SimComm <= 0 {
		t.Errorf("SASGD with 2 learners reported zero communication time")
	}
	if res.EpochTime() <= 0 {
		t.Error("EpochTime not positive")
	}
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	prob := tinyProblem(20, 10, 14)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm did not panic")
		}
	}()
	Train(Config{Algo: "adamw", Gamma: 0.1}, prob)
}

func TestMissingDataPanics(t *testing.T) {
	prob := tinyProblem(20, 10, 15)
	prob.Train = nil
	defer func() {
		if recover() == nil {
			t.Fatal("nil training data did not panic")
		}
	}()
	Train(Config{Algo: AlgoSGD, Gamma: 0.1}, prob)
}

func TestZeroGammaPanics(t *testing.T) {
	prob := tinyProblem(20, 10, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("zero learning rate did not panic")
		}
	}()
	Train(Config{Algo: AlgoSGD}, prob)
}

func TestEAMSGDMomentumDisable(t *testing.T) {
	prob := tinyProblem(200, 60, 17)
	// Momentum < 0 disables momentum; the run must still learn.
	res := Train(Config{Algo: AlgoEAMSGD, Learners: 2, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 10, Seed: 1, Momentum: -1}, prob)
	if res.FinalTest < 0.8 {
		t.Errorf("momentum-free EAMSGD test accuracy %.3f", res.FinalTest)
	}
}

func TestLearnerPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("learner panic was swallowed")
		}
	}()
	runLearners(3, func(rank int) {
		if rank == 1 {
			panic("boom")
		}
	})
}

// TestSASGDInterval1EqualsSynchronousSGD: with p=1 and T=1, SASGD reduces
// to plain SGD up to the γp application: local step −γg then reference
// update −γp·g from the same point... the composition is −(γ+... — the
// final parameters must match an SGD run with learning rate γp, because
// the local −γ·g step is discarded at each aggregation (x ← x′).
func TestSASGDInterval1SingleLearnerMatchesSGDAtGammaP(t *testing.T) {
	prob := tinyProblem(100, 40, 18)
	gammaP := 0.07
	sasgd := Train(Config{Algo: AlgoSASGD, Learners: 1, Interval: 1, Gamma: 0.1, GammaP: gammaP, Batch: 10, Epochs: 3, Seed: 2}, prob)
	// An SGD run whose per-batch step is −γp·g over the same sample
	// stream. SGD's sampler seed differs from learner 0's, so replay
	// manually instead of calling Train.
	net := prob.Model(2)
	sampler := data.NewEpochSampler(prob.Train.Len(), 10, 2*31*0+2+0*31+7) // matches learner 0's seed formula: cfg.Seed + rank*31 + 7 = 2+7
	_ = sampler
	replay := prob.Model(2)
	s2 := data.NewEpochSampler(prob.Train.Len(), 10, 9)
	bpe := s2.BatchesPerEpoch()
	for e := 0; e < 3; e++ {
		for b := 0; b < bpe; b++ {
			idx := s2.Next()
			x, y := prob.Train.Batch(idx)
			replay.Step(x, y)
			tensor.Axpy(-gammaP, replay.GradData(), replay.ParamData())
		}
	}
	_ = net
	for i := range sasgd.FinalParams {
		if math.Abs(sasgd.FinalParams[i]-replay.ParamData()[i]) > 1e-9 {
			t.Fatalf("SASGD(p=1,T=1) != SGD at γp: index %d, %g vs %g", i, sasgd.FinalParams[i], replay.ParamData()[i])
		}
	}
}

func TestSASGDCompressionStillLearns(t *testing.T) {
	prob := tinyProblem(300, 100, 20)
	res := Train(Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 3, Gamma: 0.1,
		Batch: 10, Epochs: 15, Seed: 1, Compress: CodecTopK, CompressK: 0.1,
	}, prob)
	if res.FinalTest < 0.85 {
		t.Errorf("top-10%% compressed SASGD test accuracy %.3f, want > 0.85", res.FinalTest)
	}
}

func TestSASGDCompressionReducesTraffic(t *testing.T) {
	prob := tinyProblem(160, 40, 21)
	base := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 4, Seed: 1}
	dense := Train(base, prob)
	compressed := base
	compressed.Compress, compressed.CompressK = CodecTopK, 0.05
	sparse := Train(compressed, prob)
	// Sparse messages carry index+value pairs, so at 5% density traffic
	// should drop by well over 2×. (The initial dense broadcast is common
	// to both.)
	if sparse.WordsMoved*2 >= dense.WordsMoved {
		t.Errorf("compressed run moved %d words vs dense %d", sparse.WordsMoved, dense.WordsMoved)
	}
}

func TestSASGDCompressionDeterministic(t *testing.T) {
	prob := tinyProblem(120, 40, 22)
	cfg := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 3, Seed: 9, Compress: CodecTopK, CompressK: 0.2}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatal("compressed SASGD not deterministic")
		}
	}
}

func TestSASGDErrorFeedbackPreservesGradientMass(t *testing.T) {
	// With T covering the whole (tiny) run and k = 100%, compression is a
	// no-op: results must match the dense path bit-for-bit modulo
	// summation order. Use a single learner so the allreduce is trivial
	// and the comparison exact.
	prob := tinyProblem(40, 20, 23)
	base := Config{Algo: AlgoSASGD, Learners: 1, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 2, Seed: 4}
	dense := Train(base, prob)
	c := base
	c.Compress, c.CompressK = CodecTopK, 0.999999 // k = ⌈0.999999·n⌉ = n: keeps every entry
	full := Train(c, prob)
	// SparsityK rounds up, so a near-1 fraction keeps every entry of
	// every bucket; with p = 1 the codec's select→encode→decode round
	// trip is exact and the trajectories must match bitwise.
	for i := range dense.FinalParams {
		if dense.FinalParams[i] != full.FinalParams[i] {
			t.Fatalf("near-lossless compression diverged at %d: %g vs %g",
				i, dense.FinalParams[i], full.FinalParams[i])
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Algo: AlgoSASGD, P: 4, T: 50,
		SimTime: 10,
		Curve:   metrics.Curve{{Epoch: 2}, {Epoch: 5}},
	}
	if got := r.EpochTime(); got != 2 {
		t.Errorf("EpochTime = %g, want 2", got)
	}
	if s := r.String(); s == "" {
		t.Error("empty String")
	}
	if (&Result{}).EpochTime() != 0 {
		t.Error("EpochTime of empty result not zero")
	}
}

func TestEvaluatorAccuracy(t *testing.T) {
	prob := tinyProblem(50, 30, 30)
	r := newRecorder(prob, 2)
	net := prob.Model(1)
	tr, te := r.accuracy(net.ParamData())
	for _, acc := range []float64{tr, te} {
		if acc < 0 || acc > 1 {
			t.Fatalf("accuracy %g out of range", acc)
		}
	}
	// Accuracy must be a deterministic function of the parameters.
	if tr2, te2 := r.accuracy(net.ParamData()); tr2 != tr || te2 != te {
		t.Error("evaluator not deterministic")
	}
}

func TestHogwildLearns(t *testing.T) {
	prob := tinyProblem(300, 100, 31)
	res := Train(Config{Algo: AlgoHogwild, Learners: 4, Gamma: 0.1, Batch: 10, Epochs: 15, Seed: 1}, prob)
	if res.FinalTest < 0.85 {
		t.Errorf("Hogwild test accuracy %.3f, want > 0.85", res.FinalTest)
	}
	if res.FinalParams == nil {
		t.Error("FinalParams not captured")
	}
}

func TestHogwildSingleLearnerMatchesSGDShape(t *testing.T) {
	// With one learner there are no races: Hogwild is plain SGD over the
	// same sample stream and must reach comparable accuracy.
	prob := tinyProblem(200, 80, 32)
	hog := Train(Config{Algo: AlgoHogwild, Learners: 1, Gamma: 0.1, Batch: 10, Epochs: 10, Seed: 1}, prob)
	sgd := Train(Config{Algo: AlgoSGD, Gamma: 0.1, Batch: 10, Epochs: 10, Seed: 1}, prob)
	if diff := hog.FinalTest - sgd.FinalTest; diff < -0.1 || diff > 0.1 {
		t.Errorf("Hogwild p=1 (%.3f) far from SGD (%.3f)", hog.FinalTest, sgd.FinalTest)
	}
}

func TestPaperScaleModelsTrainUnderHarness(t *testing.T) {
	// One SASGD epoch over a tiny sample set with the exact Table-I and
	// Table-II networks: verifies the full-scale architectures run under
	// the distributed harness (the figure suite uses reduced models).
	if testing.Short() {
		t.Skip("paper-scale step: skipped in -short")
	}
	imgCfg := data.SmallImageConfig()
	imgCfg.TrainN, imgCfg.TestN, imgCfg.Size = 16, 8, 32
	train, test := data.GenImages(imgCfg)
	prob := &Problem{
		Name: "paper-cifar",
		Model: func(seed int64) *nn.Network {
			return model.NewCIFARNet(rand.New(rand.NewSource(seed)), model.PaperCIFARConfig())
		},
		Train: train, Test: test,
	}
	res := Train(Config{Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.01, Batch: 4, Epochs: 1, Seed: 1}, prob)
	if res.Samples != 16 {
		t.Errorf("processed %d samples", res.Samples)
	}
	if len(res.FinalParams) != 506378 {
		t.Errorf("paper model has %d params", len(res.FinalParams))
	}

	txtCfg := data.SmallTextConfig()
	txtCfg.TrainN, txtCfg.TestN, txtCfg.EmbedDim, txtCfg.Classes = 16, 8, 100, 311
	ttrain, ttest := data.GenText(txtCfg)
	tprob := &Problem{
		Name: "paper-nlcf",
		Model: func(seed int64) *nn.Network {
			return model.NewNLCFNet(rand.New(rand.NewSource(seed)), model.PaperNLCFConfig())
		},
		Train: ttrain, Test: ttest,
	}
	tres := Train(Config{Algo: AlgoSASGD, Learners: 2, Interval: 4, Gamma: 0.01, Batch: 1, Epochs: 1, Seed: 1}, tprob)
	if len(tres.FinalParams) != 1733511 {
		t.Errorf("paper NLC-F model has %d params", len(tres.FinalParams))
	}
}

func TestVirtualTimeMakesDownpourDeterministic(t *testing.T) {
	prob := tinyProblem(160, 40, 40)
	cfg := Config{Algo: AlgoDownpour, Learners: 4, Interval: 1, Gamma: 0.05, Batch: 5, Epochs: 3, Seed: 2, VirtualTime: true}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatal("virtual-time Downpour not deterministic")
		}
	}
	if a.StalenessMean != b.StalenessMean || a.StalenessMax != b.StalenessMax {
		t.Errorf("staleness not deterministic: %.3f/%d vs %.3f/%d",
			a.StalenessMean, a.StalenessMax, b.StalenessMean, b.StalenessMax)
	}
}

func TestVirtualTimeStalenessEmergesRoundRobin(t *testing.T) {
	// With equal step-counter clocks the gate runs learners round-robin:
	// at T=1 every push observes the other p−1 learners' updates.
	prob := tinyProblem(160, 40, 41)
	p := 4
	res := Train(Config{Algo: AlgoDownpour, Learners: p, Interval: 1, Gamma: 0.05, Batch: 5, Epochs: 3, Seed: 2, VirtualTime: true}, prob)
	if res.StalenessMax == 0 {
		t.Fatal("virtual-time Downpour observed no staleness")
	}
	// Round-robin steady state: staleness ≈ p−1 (the first few steps see
	// less; the mean must land between 1 and p−1).
	if res.StalenessMean < 1 || res.StalenessMean > float64(p-1)+0.01 {
		t.Errorf("virtual-time staleness mean %.3f, want within [1, %d]", res.StalenessMean, p-1)
	}
}

func TestVirtualTimeAllAsyncAlgorithmsLearn(t *testing.T) {
	prob := tinyProblem(300, 100, 42)
	for _, algo := range []Algorithm{AlgoDownpour, AlgoEAMSGD, AlgoHogwild} {
		res := Train(Config{Algo: algo, Learners: 4, Interval: 3, Gamma: 0.1, Batch: 10, Epochs: 15, Seed: 1, VirtualTime: true}, prob)
		if res.FinalTest < 0.85 {
			t.Errorf("%s under virtual time: final test %.3f", algo, res.FinalTest)
		}
	}
}

func TestVirtualGateOrdersByClock(t *testing.T) {
	g := newVirtualGate(3)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Learner r performs 3 steps, each advancing its clock by (r+1): the
	// gate must always admit the minimum-clock learner, giving a fully
	// determined admission order.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			clock := 0.0
			for s := 0; s < 3; s++ {
				g.Acquire(r)
				mu.Lock()
				order = append(order, r)
				mu.Unlock()
				clock += float64(r + 1)
				g.Release(r, clock)
			}
			g.Done(r)
		}(r)
	}
	wg.Wait()
	// Replay the expected min-clock schedule.
	clocks := []float64{0, 0, 0}
	steps := []int{0, 0, 0}
	var want []int
	for len(want) < 9 {
		best := -1
		for r := 0; r < 3; r++ {
			if steps[r] >= 3 {
				continue
			}
			if best == -1 || clocks[r] < clocks[best] || (clocks[r] == clocks[best] && r < best) {
				best = r
			}
		}
		want = append(want, best)
		clocks[best] += float64(best + 1)
		steps[best]++
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v", order, want)
		}
	}
}

func TestVirtualGateMisusePanics(t *testing.T) {
	g := newVirtualGate(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Release by non-holder did not panic")
		}
	}()
	g.Release(0, 1)
}
