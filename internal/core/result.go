package core

import (
	"fmt"
	"sync"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/metrics"
	"sasgd/internal/nn"
	"sasgd/internal/tensor"
)

// Result summarizes one training run.
type Result struct {
	Algo Algorithm
	P    int // learners
	T    int // aggregation interval (configured; the T-scheduler's start)
	// FinalT is the communication period in effect when a SASGD run
	// finished — equal to T unless a decay or adaptive T-scheduler moved
	// it. Set on every SASGD run; zero for the other algorithms.
	FinalT int
	Curve  metrics.Curve
	// FinalTrain/FinalTest are the last recorded accuracies.
	FinalTrain float64
	FinalTest  float64
	// Samples is the total number of training samples processed across
	// all learners.
	Samples int64
	// Wall is the real elapsed time of the run.
	Wall time.Duration

	// Simulated-fabric measurements (zero when Config.Sim was nil).
	SimTime    float64 // simulated seconds, max across learners
	SimCompute float64 // mean per-learner compute seconds
	SimComm    float64 // mean per-learner communication seconds

	// Staleness statistics for the asynchronous algorithms: the number
	// of server updates that intervened between a learner's pull and its
	// push (0 for SASGD/SGD, whose staleness is bounded by construction).
	StalenessMean float64
	StalenessMax  int64

	// WordsMoved is the number of parameter words transferred through
	// the group collectives (SASGD) during the run.
	WordsMoved int64

	// Comm is the group's full communication-stats snapshot (traffic per
	// collective algorithm, mailbox wait, bucketed-pipeline occupancy,
	// fault counters) for the collective algorithms; zero value for the
	// server-based ones.
	Comm comm.Stats

	// CompressK is the final working top-k fraction of a compressed run:
	// the configured CompressK unless CompressAdapt moved it. Zero for
	// dense and qint8 runs.
	CompressK float64

	// LiveP is the number of learners still live when the run finished:
	// P minus crashes and evictions. Equal to P except on the
	// crash-tolerant path.
	LiveP int

	// FinalParams is learner 0's parameter vector when it finished its
	// run (the parameters the final accuracies were evaluated at for the
	// synchronous algorithms; for the asynchronous ones, learner 0's
	// replica at its own completion).
	FinalParams []float64
}

// EpochTime returns the mean simulated seconds per epoch (0 when the run
// was not simulated).
func (r *Result) EpochTime() float64 {
	if len(r.Curve) == 0 || r.SimTime == 0 {
		return 0
	}
	last := r.Curve[len(r.Curve)-1].Epoch
	if last == 0 {
		return 0
	}
	return r.SimTime / float64(last)
}

// String summarizes the run on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s p=%d T=%d: train %s test %s (%d samples, sim %.3fs)",
		r.Algo, r.P, r.T, metrics.Pct(r.FinalTrain), metrics.Pct(r.FinalTest), r.Samples, r.SimTime)
}

// evalBatch is the sample count of one accuracy-evaluation forward
// pass.
const evalBatch = 256

// evalJob is one evaluation batch: a view of a contiguous sample range
// of the train (set 0) or test (set 1) dataset.
type evalJob struct {
	x   *tensor.Tensor
	y   []int
	set int
}

// recorder collects the accuracy curve during a run. Evaluations are
// requested by learner 0 at collective-epoch boundaries; the recorder is
// internally locked because asynchronous runs may race a final record
// against run teardown.
//
// One evaluation forwards the train batches and then the test batches,
// evalBatch samples each and read in place from the datasets, split
// into contiguous shards over len(nets) model replicas (inference mode,
// no dropout). The caller runs shard 0 and one helper goroutine runs
// each other shard. Correct-prediction counts are integers, so the
// recorded accuracies do not depend on the shard count.
type recorder struct {
	mu    sync.Mutex
	nets  []*nn.Network
	jobs  []evalJob
	sizes [2]int // train, test sample counts
	start time.Time
	curve metrics.Curve
}

// newRecorder builds a recorder that evaluates on up to shards model
// replicas (at least 1, at most one per batch). The synchronous trainers
// pass the process worker budget, since every other learner is parked at
// the epoch barrier while learner 0 records; the asynchronous ones pass
// 1, since their other learners keep training.
func newRecorder(p *Problem, shards int) *recorder {
	r := &recorder{sizes: [2]int{p.Train.Len(), p.Test.Len()}}
	for set, ds := range []*data.Dataset{p.Train, p.Test} {
		for lo := 0; lo < ds.Len(); lo += evalBatch {
			v := ds.Slice(lo, min(lo+evalBatch, ds.Len()))
			r.jobs = append(r.jobs, evalJob{x: v.X, y: v.Y, set: set})
		}
	}
	r.nets = make([]*nn.Network, max(1, min(shards, len(r.jobs))))
	for i := range r.nets {
		r.nets[i] = p.newReplica(1<<40 + 1)
	}
	r.start = time.Now()
	return r
}

// accuracy returns the fraction of correct argmax predictions under the
// given parameters on the train and test sets.
func (r *recorder) accuracy(params []float64) (train, test float64) {
	correct := make([][2]int, len(r.nets))
	var wg sync.WaitGroup
	for s := 1; s < len(r.nets); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			correct[s] = r.evalShard(s, params)
		}(s)
	}
	correct[0] = r.evalShard(0, params)
	wg.Wait()
	var sum [2]int
	for _, c := range correct {
		sum[0] += c[0]
		sum[1] += c[1]
	}
	frac := func(set int) float64 {
		if r.sizes[set] == 0 {
			return 0
		}
		return float64(sum[set]) / float64(r.sizes[set])
	}
	return frac(0), frac(1)
}

// evalShard runs shard s of the job list on replica s and returns its
// correct-prediction counts per set.
func (r *recorder) evalShard(s int, params []float64) (correct [2]int) {
	net := r.nets[s]
	net.SetParamData(params)
	n := len(r.nets)
	for _, j := range r.jobs[s*len(r.jobs)/n : (s+1)*len(r.jobs)/n] {
		for i, p := range net.Predict(j.x) {
			if p == j.y[i] {
				correct[j.set]++
			}
		}
	}
	return correct
}

// record evaluates params and appends a point for the given epoch.
func (r *recorder) record(epoch int, params []float64, loss, simTime float64) {
	tr, te := r.accuracy(params)
	r.mu.Lock()
	r.curve = append(r.curve, metrics.Point{
		Epoch:    epoch,
		Train:    tr,
		Test:     te,
		Loss:     loss,
		SimTime:  simTime,
		WallSecs: time.Since(r.start).Seconds(),
	})
	r.mu.Unlock()
}

func (r *recorder) points() metrics.Curve {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(metrics.Curve(nil), r.curve...)
}
