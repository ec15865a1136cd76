package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"sasgd/internal/core"
	"sasgd/internal/obs"
)

// spanStats aggregates the spans of one exported trace. Learner phases
// are keyed by their span name ("agg_wait"), comm-worker phases by
// "comm." plus the name.
type spanStats struct {
	durs  map[string][]float64 // span durations in ns
	total map[string]float64   // summed durations in ns
	waits map[int][]float64    // agg_wait start times (ns) per learner rank
}

// traceEvent is the subset of the Chrome trace-event fields the
// analysis reads.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	ID   string  `json:"id"`
	Ts   float64 `json:"ts"` // microseconds
}

// learnerPid is the trace process id of obs learner tracks.
const learnerPid = 1

// readSpans streams the Chrome trace that obs.Tracer.WriteTrace writes
// and matches its B/E (and async b/e) events into spans, without
// holding the whole document in memory.
func readSpans(r io.Reader) (*spanStats, error) {
	st := &spanStats{durs: map[string][]float64{}, total: map[string]float64{}, waits: map[int][]float64{}}
	add := func(b, e traceEvent) {
		key := b.Name
		if b.Pid != learnerPid {
			key = "comm." + b.Name
		}
		d := (e.Ts - b.Ts) * 1e3
		st.durs[key] = append(st.durs[key], d)
		st.total[key] += d
		if key == "agg_wait" {
			st.waits[b.Tid] = append(st.waits[b.Tid], b.Ts*1e3)
		}
	}
	type key struct{ pid, tid int }
	type akey struct {
		pid      int
		id, name string
	}
	stacks := map[key][]traceEvent{}
	open := map[akey]traceEvent{}

	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return nil, err
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("reading trace: %w", err)
		}
		if tok != "traceEvents" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, fmt.Errorf("reading trace: %w", err)
			}
			continue
		}
		if err := expectDelim(dec, '['); err != nil {
			return nil, err
		}
		for dec.More() {
			var e traceEvent
			if err := dec.Decode(&e); err != nil {
				return nil, fmt.Errorf("reading trace event: %w", err)
			}
			k := key{e.Pid, e.Tid}
			switch e.Ph {
			case "B":
				stacks[k] = append(stacks[k], e)
			case "E":
				s := stacks[k]
				if len(s) == 0 {
					return nil, fmt.Errorf("trace: unmatched end of %q", e.Name)
				}
				add(s[len(s)-1], e)
				stacks[k] = s[:len(s)-1]
			case "b":
				open[akey{e.Pid, e.ID, e.Name}] = e
			case "e":
				ak := akey{e.Pid, e.ID, e.Name}
				b, ok := open[ak]
				if !ok {
					return nil, fmt.Errorf("trace: unmatched async end of %q", e.Name)
				}
				add(b, e)
				delete(open, ak)
			}
		}
		if err := expectDelim(dec, ']'); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	if tok != want {
		return fmt.Errorf("reading trace: got %v, want %v", tok, want)
	}
	return nil
}

// trackSpans sizes each trace ring from the workload's step count so
// that no span is overwritten: per learner step at most forward,
// backward, local step, agg wait, agg apply and, per parameterized
// layer, a bucket launch and a compress span; the comm workers record
// fewer.
func trackSpans(w *workload, in *instance) int {
	layers := 0
	for _, l := range in.ex.Problem.Model(1).Layers() {
		if len(l.Params()) > 0 {
			layers++
		}
	}
	return w.stepsPerLearner(in)*(5+2*layers) + 64
}

// tracedRun is one traced core.Train call with its exported spans.
type tracedRun struct {
	res   *core.Result
	spans *spanStats
	in    *instance
}

// runTraced trains once with a tracer attached and checks that no
// track dropped a span.
func runTraced(w *workload, seed int64) (*tracedRun, error) {
	in, _, err := w.setup()
	if err != nil {
		return nil, err
	}
	// WireStats stays readable after Close.
	defer in.close()
	tracer := obs.NewTracer(trackSpans(w, in))
	cfg := w.config(in, seed)
	cfg.Tracer = tracer
	res, err := train(cfg, in.ex.Problem)
	if err != nil {
		return nil, err
	}
	for _, t := range tracer.Tracks() {
		if d := t.Dropped(); d > 0 {
			return nil, fmt.Errorf("trace ring of %d spans dropped %d spans", t.Cap(), d)
		}
	}
	// The export holds every event in memory at once; collect eagerly
	// while it runs to keep the peak near the live size.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	pr, pw := io.Pipe()
	exported := make(chan error, 1)
	go func() {
		err := tracer.WriteTrace(pw)
		pw.CloseWithError(err)
		exported <- err
	}()
	spans, err := readSpans(pr)
	// Unblocks the exporter if reading stopped early.
	pr.CloseWithError(io.ErrClosedPipe)
	if werr := <-exported; err == nil && werr != nil {
		err = fmt.Errorf("exporting trace: %w", werr)
	}
	if err != nil {
		return nil, err
	}
	return &tracedRun{res: res, spans: spans, in: in}, nil
}

// measureLayers is the traced mode: it alternates untraced and traced
// training runs (for the tracing overhead and the span-derived core and
// comm metrics), then times each layer's public functions directly.
func measureLayers(r *run, w *workload, seed int64, budget time.Duration) {
	start := time.Now()
	var ref *outcome
	var untraced, traced []float64
	var last *tracedRun
	// Pairs start during the first third of the budget; the layer
	// timings take about ten seconds after them.
	for pair := 0; pair == 0 || time.Since(start) < budget/3; pair++ {
		runtime.GC()
		in, _, err := w.setup()
		r.attempted++
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		res, err := train(w.config(in, seed), in.ex.Problem)
		in.close()
		if err != nil {
			r.fail("untraced run: %v", err)
			return
		}
		if msg := w.check(res); msg != "" {
			r.fail("untraced run: %s", msg)
			return
		}
		o := outcomeOf(res)
		if ref == nil {
			ref = &o
		} else if msg := o.sameAs(*ref); msg != "" {
			r.fail("untraced run not deterministic: %s", msg)
		}
		untraced = append(untraced, float64(res.Samples)/res.Wall.Seconds())

		runtime.GC()
		r.attempted++
		tr, err := runTraced(w, seed)
		if err != nil {
			r.fail("traced run: %v", err)
			return
		}
		if msg := outcomeOf(tr.res).sameAs(*ref); msg != "" {
			r.fail("traced run differs from the untraced run: %s", msg)
		}
		traced = append(traced, float64(tr.res.Samples)/tr.res.Wall.Seconds())
		last = tr
	}
	r.set("obs.trace_overhead_frac", "ratio", 1-median(traced)/median(untraced))
	spanMetrics(r, w, last)
	layerMetrics(r, w, last.in)
}

// spanMetrics derives the core.* and comm.* per-layer metrics from a
// traced run's spans and communication counters. Phases the workload's
// path does not record read 0.
func spanMetrics(r *run, w *workload, tr *tracedRun) {
	res := tr.res
	learnerNs := float64(w.p) * float64(res.Wall.Nanoseconds())
	steps := float64(w.stepsPerLearner(tr.in))
	durs, total := tr.spans.durs, tr.spans.total
	for _, ph := range []string{"forward", "backward", "local_step", "agg_apply", "agg_wait"} {
		r.set("core."+ph+"_share", "ratio", total[ph]/learnerNs)
	}
	r.set("core.agg_wait_ns_p50", "ns", percentile(durs["agg_wait"], 50))
	r.set("core.agg_wait_ns_p99", "ns", percentile(durs["agg_wait"], 99))
	r.set("core.learner_skew", "ns", learnerSkew(tr.spans.waits))

	st := res.Comm
	r.set("comm.words_per_step", "words", float64(st.Words)/steps)
	r.set("comm.messages_per_step", "count", float64(st.Messages)/steps)
	r.set("comm.wire_bytes_per_sample", "B", float64(st.Bytes)/float64(res.Samples))
	r.set("comm.mailbox_wait_share", "ratio", float64(st.MailboxWait.Nanoseconds())/learnerNs)
	r.set("comm.pipeline_occupancy", "ratio", st.PipelineOccupancy)
	r.set("comm.queue_dwell_ns_p50", "ns", percentile(durs["comm.queue_dwell"], 50))
	compress := append(append([]float64(nil), durs["compress"]...), durs["comm.compress"]...)
	r.set("comm.compress_ns_p50", "ns", percentile(compress, 50))

	var frames, bytesOut float64
	if tr.in.tr != nil {
		ws := tr.in.tr.WireStats()
		frames, bytesOut = float64(ws.FramesOut), float64(ws.BytesOut)
	}
	r.set("tcp.frames_per_step", "count", frames/steps)
	r.set("tcp.bytes_per_step", "B", bytesOut/steps)
}

// learnerSkew is the median, over aggregation boundaries, of the spread
// between the first and the last learner's arrival at the boundary (the
// start of its agg_wait span). The k-th agg_wait of every learner
// belongs to boundary k.
func learnerSkew(waits map[int][]float64) float64 {
	if len(waits) < 2 {
		return 0
	}
	n := math.MaxInt
	for _, v := range waits {
		n = min(n, len(v))
	}
	skews := make([]float64, n)
	for k := range skews {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range waits {
			lo, hi = min(lo, v[k]), max(hi, v[k])
		}
		skews[k] = hi - lo
	}
	return median(skews)
}
