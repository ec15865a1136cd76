package core

import (
	"hash/fnv"
	"math"
	"testing"

	"sasgd/internal/data"
	"sasgd/internal/metrics"
	"sasgd/internal/parallel"
)

// serialAccuracy is the single-replica reference evaluation: every
// evalBatch-sample batch gathered with Dataset.Batch (a copy) and
// predicted in order on one model.
func serialAccuracy(prob *Problem, params []float64, ds *data.Dataset) float64 {
	net := prob.newReplica(1)
	net.SetParamData(params)
	correct := 0
	for lo := 0; lo < ds.Len(); lo += evalBatch {
		idx := make([]int, min(evalBatch, ds.Len()-lo))
		for i := range idx {
			idx[i] = lo + i
		}
		x, y := ds.Batch(idx)
		for i, p := range net.Predict(x) {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// sameCurve compares two curves bitwise on every deterministic field
// (WallSecs is wall-clock time).
func sameCurve(t *testing.T, label string, got, want metrics.Curve) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d curve points, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Epoch != w.Epoch || math.Float64bits(g.Train) != math.Float64bits(w.Train) ||
			math.Float64bits(g.Test) != math.Float64bits(w.Test) ||
			math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
			math.Float64bits(g.SimTime) != math.Float64bits(w.SimTime) {
			t.Fatalf("%s: point %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// TestRecordShardCountBitwise: the recorded curve is bitwise the same
// at every shard count — including counts above the batch count, which
// are capped — and equals the serial single-replica evaluation, on
// datasets whose lengths are not multiples of the eval batch.
func TestRecordShardCountBitwise(t *testing.T) {
	prob := cifarProblem(1000, 300) // 4 + 2 eval batches, both ragged
	params := Train(Config{Algo: AlgoSGD, Gamma: 0.05, Batch: 16, Epochs: 1, Seed: 3}, prob).FinalParams
	want := metrics.Curve{{
		Epoch: 1, Loss: 0.5, SimTime: 2,
		Train: serialAccuracy(prob, params, prob.Train),
		Test:  serialAccuracy(prob, params, prob.Test),
	}}
	if want[0].Train == 0 || want[0].Train == 1 {
		t.Fatalf("degenerate reference accuracy %g", want[0].Train)
	}
	for _, shards := range []int{1, 2, 3, 7} {
		r := newRecorder(prob, shards)
		if got := len(r.nets); got != min(shards, 6) {
			t.Fatalf("shards=%d: %d replicas, want %d", shards, got, min(shards, 6))
		}
		r.record(1, params, 0.5, 2)
		sameCurve(t, "record", r.points(), want)
	}
}

// TestTrainWorkerBudgetBitwise: the process worker budget sets how
// many replicas evaluate and how many kernel workers each learner gets,
// and neither may move a bit of the curve or the final parameters.
func TestTrainWorkerBudgetBitwise(t *testing.T) {
	prob := cifarProblem(400, 300)
	for _, cfg := range []Config{
		{Algo: AlgoSGD, Gamma: 0.05, Batch: 16, Epochs: 2, Seed: 5},
		{Algo: AlgoSASGD, Learners: 2, Interval: 3, Gamma: 0.05, Batch: 16, Epochs: 2, Seed: 5},
	} {
		var ref *Result
		for _, w := range []int{1, 2, 3} {
			prev := parallel.SetWorkers(w)
			res := Train(cfg, prob)
			parallel.SetWorkers(prev)
			if ref == nil {
				ref = res
				continue
			}
			label := string(cfg.Algo)
			sameCurve(t, label, res.Curve, ref.Curve)
			for i := range ref.FinalParams {
				if math.Float64bits(res.FinalParams[i]) != math.Float64bits(ref.FinalParams[i]) {
					t.Fatalf("%s workers=%d: FinalParams[%d] = %v, want %v", label, w, i, res.FinalParams[i], ref.FinalParams[i])
				}
			}
		}
	}
}

// datasetHash digests a dataset's samples and labels.
func datasetHash(d *data.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range d.X.Data {
		put(math.Float64bits(v))
	}
	for _, y := range d.Y {
		put(uint64(y))
	}
	return h.Sum64()
}

// TestTrainLeavesDatasetsUnchanged: learners' shards and the evaluation
// batches are views of the problem's datasets, so a run must only ever
// read them.
func TestTrainLeavesDatasetsUnchanged(t *testing.T) {
	prob := cifarProblem(300, 300)
	train, test := datasetHash(prob.Train), datasetHash(prob.Test)
	for _, cfg := range []Config{
		{Algo: AlgoSGD, Gamma: 0.05, Batch: 16, Epochs: 1, Seed: 6},
		{Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05, Batch: 16, Epochs: 1, Seed: 6, OverlapComm: true},
		{Algo: AlgoHogwild, Learners: 2, Gamma: 0.05, Batch: 16, Epochs: 1, Seed: 6},
	} {
		Train(cfg, prob)
		if datasetHash(prob.Train) != train || datasetHash(prob.Test) != test {
			t.Fatalf("%s run modified its datasets", cfg.Algo)
		}
	}
}
