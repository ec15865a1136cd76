package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"syscall"
	"time"

	"sasgd/internal/core"
	"sasgd/internal/metrics"
)

const (
	// panelSize is the number of core.Config seeds one invocation
	// trains. Final accuracy and loss vary by about 20% from seed to
	// seed at this scale, so they are reported as panel medians.
	panelSize = 5
	// panelStride spaces a panel's seeds so that the panels of nearby
	// --seed values do not overlap.
	panelStride = 1 << 20
	// minReps is the fewest training runs one invocation makes: every
	// panel seed once and the first one twice, for the run-to-run
	// determinism check.
	minReps = panelSize + 1
	// minSetups is the fewest set-up timings behind the setup_s median.
	minSetups = 11
	// trainDeadline bounds one core.Train call; a run past it counts as
	// a failed operation.
	trainDeadline = 60 * time.Second
)

// panelSeeds returns the core.Config seeds an invocation with --seed
// seed trains; the first is seed itself.
func panelSeeds(seed int64) []int64 {
	seeds := make([]int64, panelSize)
	for j := range seeds {
		seeds[j] = seed + int64(j)*panelStride
	}
	return seeds
}

// outcome is what one training run must reproduce exactly on every
// repetition of the same workload and seed.
type outcome struct {
	curve   metrics.Curve
	samples int64
	digest  uint64
}

func outcomeOf(res *core.Result) outcome {
	return outcome{curve: res.Curve, samples: res.Samples, digest: digest(res.FinalParams)}
}

// sameAs reports the first difference between two outcomes, ignoring
// wall-clock fields; "" when they match bitwise.
func (o outcome) sameAs(ref outcome) string {
	if o.samples != ref.samples {
		return fmt.Sprintf("samples %d, first run %d", o.samples, ref.samples)
	}
	if len(o.curve) != len(ref.curve) {
		return fmt.Sprintf("%d curve points, first run %d", len(o.curve), len(ref.curve))
	}
	for i, p := range o.curve {
		q := ref.curve[i]
		if p.Epoch != q.Epoch || p.Train != q.Train || p.Test != q.Test || math.Float64bits(p.Loss) != math.Float64bits(q.Loss) {
			return fmt.Sprintf("epoch %d point (%v %v %v), first run (%v %v %v)", p.Epoch, p.Train, p.Test, p.Loss, q.Train, q.Test, q.Loss)
		}
	}
	if o.digest != ref.digest {
		return fmt.Sprintf("final-params digest %016x, first run %016x", o.digest, ref.digest)
	}
	return ""
}

// digest hashes a parameter vector's exact bits.
func digest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// train runs core.Train under trainDeadline, turning a panic or a
// missed deadline into an error. After a missed deadline the run keeps
// its goroutines; the caller stops measuring and the process exits.
func train(cfg core.Config, prob *core.Problem) (res *core.Result, err error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("core.Train panicked: %v", p)
			}
		}()
		res = core.Train(cfg, prob)
	}()
	select {
	case <-done:
		return res, err
	case <-time.After(trainDeadline):
		return nil, fmt.Errorf("core.Train ran past its %v deadline", trainDeadline)
	}
}

// check applies the per-run correctness checks and returns the first
// failure, or "".
func (w *workload) check(res *core.Result) string {
	if len(res.Curve) != w.epochs {
		return fmt.Sprintf("%d curve points, want %d", len(res.Curve), w.epochs)
	}
	for _, v := range res.FinalParams {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "non-finite final parameter"
		}
	}
	if len(res.FinalParams) == 0 {
		return "no final parameters"
	}
	if res.FinalTest < w.floor {
		return fmt.Sprintf("final test accuracy %.4f below floor %.2f", res.FinalTest, w.floor)
	}
	return ""
}

// timeToTarget returns the wall seconds from the start of training to
// the first evaluation at or above the workload's target accuracy. The
// target sits below the floor and FinalTest is the last evaluation, so
// every run that passes check reaches it.
func (w *workload) timeToTarget(res *core.Result) float64 {
	for _, pt := range res.Curve {
		if pt.Test >= w.target {
			return pt.WallSecs
		}
	}
	return res.Wall.Seconds()
}

// cpuSeconds returns the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureEndToEnd trains the workload repeatedly until the budget is
// spent, cycling through the seed panel, each run on a freshly set-up
// workload. Timings are medians over all runs; final accuracy and loss
// are medians over the panel.
func measureEndToEnd(r *run, w *workload, seed int64, budget time.Duration) {
	start := time.Now()
	seeds := panelSeeds(seed)
	var (
		ref                          = make([]*outcome, panelSize)
		acc, loss                    []float64
		sps, ttt, cpu, setups, epoch []float64
		repDur                       []float64
	)
	for rep := 0; rep < minReps || time.Since(start).Seconds()+median(repDur) <= budget.Seconds(); rep++ {
		repStart := time.Now()
		j := rep % panelSize
		runtime.GC()
		in, setupDur, err := w.setup()
		r.attempted++
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		setups = append(setups, setupDur.Seconds())
		cpu0 := cpuSeconds()
		res, err := train(w.config(in, seeds[j]), in.ex.Problem)
		cpu1 := cpuSeconds()
		in.close()
		if err != nil {
			r.fail("run %d (seed %d): %v", rep, seeds[j], err)
			return
		}
		if msg := w.check(res); msg != "" {
			r.fail("run %d (seed %d): %s", rep, seeds[j], msg)
			continue
		}
		o := outcomeOf(res)
		if ref[j] == nil {
			ref[j] = &o
			acc = append(acc, res.FinalTest)
			loss = append(loss, testLoss(in.ex.Problem, res.FinalParams))
		} else if msg := o.sameAs(*ref[j]); msg != "" {
			r.fail("run %d (seed %d) not deterministic: %s", rep, seeds[j], msg)
			continue
		}
		sps = append(sps, float64(res.Samples)/res.Wall.Seconds())
		cpu = append(cpu, (cpu1-cpu0)/float64(res.Samples)*1000)
		ttt = append(ttt, w.timeToTarget(res))
		prev := 0.0
		for _, pt := range res.Curve {
			epoch = append(epoch, pt.WallSecs-prev)
			prev = pt.WallSecs
		}
		repDur = append(repDur, time.Since(repStart).Seconds())
		fmt.Printf("perfbench: run %d seed %d digest %016x: %.1f samples/s, test acc %.4f, wall %.3fs\n",
			rep, seeds[j], o.digest, sps[len(sps)-1], res.FinalTest, res.Wall.Seconds())
	}
	peak := peakRSSMB()
	for len(setups) < minSetups {
		in, d, err := w.setup()
		if err != nil {
			r.attempted++
			r.fail("set-up: %v", err)
			return
		}
		in.close()
		setups = append(setups, d.Seconds())
	}
	if w.tcp && ref[0] != nil {
		pinToChannelFabric(r, w, seeds[0], *ref[0])
	}
	if len(sps) == 0 {
		return
	}
	r.set("samples_per_s", "1/s", median(sps))
	r.set("epoch_s_p50", "s", median(epoch))
	r.set("time_to_target_s", "s", median(ttt))
	r.set("final_test_acc", "ratio", median(acc))
	r.set("final_loss", "nats", median(loss))
	r.set("cpu_s_per_ksample", "s", median(cpu))
	r.set("peak_rss_mb", "MiB", peak)
	r.set("setup_s", "s", median(setups))
}

// pinToChannelFabric reruns the TCP workload over the in-process
// channel fabric: the two transports must produce bitwise-identical
// runs.
func pinToChannelFabric(r *run, w *workload, seed int64, ref outcome) {
	in, _, err := w.setup()
	r.attempted++
	if err != nil {
		r.fail("set-up: %v", err)
		return
	}
	in.close()
	in.tr = nil
	res, err := train(w.config(in, seed), in.ex.Problem)
	if err != nil {
		r.fail("channel-fabric run: %v", err)
		return
	}
	if msg := outcomeOf(res).sameAs(ref); msg != "" {
		r.fail("TCP run differs from the channel-fabric run: %s", msg)
	}
}
