package core

import (
	"math"
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
)

// TestDelayedSingleBoundaryBitwiseEager: with exactly one communication
// boundary in the whole run, delayed application degenerates to eager —
// the only aggregate is launched at the last step and flushed before the
// final evaluation, which is precisely when the eager run applies it.
func TestDelayedSingleBoundaryBitwiseEager(t *testing.T) {
	prob := tinyProblem(32, 16, 4)
	for _, p := range []int{2, 3, 5} {
		// 32 samples / p learners, batch 4: bpe × 2 epochs = total steps;
		// Interval = total steps ⇒ one boundary at the very last step.
		shards := prob.Train.Partition(p)
		total := 2 * batchesPerEpoch(shards, 4)
		base := Config{
			Algo: AlgoSASGD, Learners: p, Interval: total, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 31, TSched: TSchedStatic,
		}
		eager := Train(base, prob)
		cfg := base
		cfg.DelayedApply = true
		delayed := Train(cfg, prob)
		for i := range eager.FinalParams {
			if eager.FinalParams[i] != delayed.FinalParams[i] {
				t.Fatalf("p=%d: single-boundary delayed not bitwise eager at %d: %g vs %g",
					p, i, eager.FinalParams[i], delayed.FinalParams[i])
			}
		}
		if eager.WordsMoved != delayed.WordsMoved {
			t.Errorf("p=%d: eager moved %d words, delayed %d", p, eager.WordsMoved, delayed.WordsMoved)
		}
	}
}

// TestDelayedOneRoundShiftHooks pins the delay semantics through
// AggHook: the delayed run fires the hook at APPLICATION time with the
// aggregate's ORIGIN boundary index, so origins arrive in order, the
// hook count matches the eager run's (the final pending aggregate is
// flushed), and the FIRST aggregate — computed from the shared prefix of
// the trajectory, before delay skews it — is bitwise identical.
func TestDelayedOneRoundShiftHooks(t *testing.T) {
	prob := tinyProblem(48, 16, 3)
	type hook struct {
		boundary int
		gs       []float64
	}
	collect := func(delayed bool) []hook {
		var hooks []hook
		cfg := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 33, TSched: TSchedStatic,
			DelayedApply: delayed,
			AggHook: func(b int, gs []float64) {
				hooks = append(hooks, hook{b, append([]float64(nil), gs...)})
			},
		}
		Train(cfg, prob)
		return hooks
	}
	eager := collect(false)
	delayed := collect(true)
	if len(eager) == 0 || len(eager) != len(delayed) {
		t.Fatalf("hook counts: eager %d, delayed %d", len(eager), len(delayed))
	}
	for i := range delayed {
		if delayed[i].boundary != i {
			t.Fatalf("delayed hook %d has origin boundary %d, want %d (in order)", i, delayed[i].boundary, i)
		}
	}
	for i := range eager[0].gs {
		if eager[0].gs[i] != delayed[0].gs[i] {
			t.Fatalf("first aggregate differs at %d: %g vs %g — the shared-prefix round must be bitwise",
				i, eager[0].gs[i], delayed[0].gs[i])
		}
	}
}

// TestHierSingletonIslandsBitwiseFlat: with one island per rank the
// intra phase is a no-op, every rank is a leader, and the outer exchange
// at TOuter=1 is the flat tree over all ranks every boundary — so the
// hierarchical path must be bitwise the flat eager path.
func TestHierSingletonIslandsBitwiseFlat(t *testing.T) {
	prob := tinyProblem(48, 16, 2)
	for _, p := range []int{2, 3, 5, 8} {
		base := Config{
			Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 35, TSched: TSchedStatic,
		}
		flat := Train(base, prob)
		cfg := base
		cfg.HierGroups = p
		cfg.TOuter = 1
		hier := Train(cfg, prob)
		for i := range flat.FinalParams {
			if flat.FinalParams[i] != hier.FinalParams[i] {
				t.Fatalf("p=%d: singleton-island hier not bitwise flat at %d: %g vs %g",
					p, i, flat.FinalParams[i], hier.FinalParams[i])
			}
		}
		if flat.WordsMoved != hier.WordsMoved {
			t.Errorf("p=%d: flat moved %d words, hier %d", p, flat.WordsMoved, hier.WordsMoved)
		}
	}
}

// TestHierDelayedDegenerateEqualsEager: delay touches only the OUTER
// exchange; with TOuter larger than the run's boundary count the outer
// never fires, so delayed and eager hierarchical runs are identical.
func TestHierDelayedDegenerateEqualsEager(t *testing.T) {
	prob := tinyProblem(48, 16, 1)
	base := Config{
		Algo: AlgoSASGD, Learners: 6, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 37,
		HierGroups: 3, TOuter: 1000,
	}
	eager := Train(base, prob)
	cfg := base
	cfg.DelayedApply = true
	delayed := Train(cfg, prob)
	for i := range eager.FinalParams {
		if eager.FinalParams[i] != delayed.FinalParams[i] {
			t.Fatalf("outer-never-fires: delayed differs from eager at %d", i)
		}
	}
	if eager.WordsMoved != delayed.WordsMoved {
		t.Errorf("eager moved %d words, delayed %d", eager.WordsMoved, delayed.WordsMoved)
	}
}

// TestHierReducesCrossIslandTraffic: the hierarchy's reason to exist —
// at equal inner period, the two-level schedule must push several times
// fewer words across island boundaries than the flat schedule, without
// giving up convergence entirely (sanity floor, not a tight bound).
func TestHierReducesCrossIslandTraffic(t *testing.T) {
	prob := tinyProblem(64, 24, 6)
	simCfg := netsim.DefaultConfig() // IslandSize 2 ⇒ 4 islands at p=8
	base := Config{
		Algo: AlgoSASGD, Learners: 8, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 39, TSched: TSchedStatic,
		Sim: netsim.New(8, simCfg), FlopsPerSample: 1e7,
	}
	flat := Train(base, prob)
	cfg := base
	cfg.Sim = netsim.New(8, simCfg)
	cfg.HierGroups = 4 // block islands of 2 = the simulated topology
	cfg.TOuter = 4
	hier := Train(cfg, prob)
	if flat.Comm.CrossWords == 0 || hier.Comm.CrossWords == 0 {
		t.Fatalf("cross-island accounting missing: flat %d, hier %d",
			flat.Comm.CrossWords, hier.Comm.CrossWords)
	}
	if hier.Comm.CrossWords*2 > flat.Comm.CrossWords {
		t.Errorf("hier crossed %d words, flat %d — want ≥2× reduction",
			hier.Comm.CrossWords, flat.Comm.CrossWords)
	}
	if hier.FinalTest < 0.5 {
		t.Errorf("hier run collapsed: final test accuracy %.3f", hier.FinalTest)
	}
}

// TestHierCrossWordsCountInitialBroadcast: in this config the outer
// round never fires (3 boundaries, TOuter 4), so every cross-island word
// of the hierarchical run is the initial broadcast's. The island map is
// installed before the learners start, so that count is exact on every
// schedule: the same broadcast on a bare group with the same islands.
func TestHierCrossWordsCountInitialBroadcast(t *testing.T) {
	prob := tinyProblem(64, 24, 6)
	const p, groups = 8, 4
	hier := Train(Config{
		Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 39, TSched: TSchedStatic,
		Sim: netsim.New(p, netsim.DefaultConfig()), FlopsPerSample: 1e7,
		HierGroups: groups, TOuter: 4,
	}, prob)
	g := comm.NewSimGroup(p, nil, nil)
	g.SetIslands(comm.BlockIslands(p, groups))
	m := prob.Model(1).NumParams()
	runLearners(p, func(rank int) { g.BroadcastTree(rank, make([]float64, m)) })
	want := g.Stats().CrossWords
	if want == 0 {
		t.Fatal("reference broadcast crossed no islands")
	}
	if hier.Comm.CrossWords != want {
		t.Errorf("hier CrossWords %d, want the initial broadcast's %d", hier.Comm.CrossWords, want)
	}
}

// TestDelayedDeterministicUnderSim: the DeferSync discipline must make
// the delayed run's simulated time independent of goroutine
// interleaving — two identical runs agree on values AND clocks — and
// the hidden transfer must not make the run slower than eager.
func TestDelayedDeterministicUnderSim(t *testing.T) {
	prob := tinyProblem(48, 16, 8)
	mk := func(delayed bool) *Result {
		return Train(Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 3, Seed: 41, TSched: TSchedStatic,
			DelayedApply: delayed,
			Sim:          netsim.New(4, netsim.DefaultConfig()), FlopsPerSample: 1e8,
		}, prob)
	}
	a, b := mk(true), mk(true)
	if a.SimTime != b.SimTime {
		t.Fatalf("delayed sim time not reproducible: %g vs %g", a.SimTime, b.SimTime)
	}
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatalf("delayed run not reproducible at %d", i)
		}
	}
	eager := mk(false)
	if a.SimTime > eager.SimTime {
		t.Errorf("delayed sim time %g exceeds eager %g — the hidden transfer made it slower", a.SimTime, eager.SimTime)
	}
}

// TestScheduledComposesCodecs: every policy × codec combination must be
// run-to-run deterministic (bitwise) — the composition contract.
func TestScheduledComposesCodecs(t *testing.T) {
	prob := tinyProblem(48, 16, 9)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"delayed+topk", func(c *Config) { c.DelayedApply = true; c.Compress = CodecTopK; c.CompressK = 0.2 }},
		{"delayed+qint8", func(c *Config) { c.DelayedApply = true; c.Compress = CodecQInt8 }},
		{"delayed+topk+adapt", func(c *Config) {
			c.DelayedApply = true
			c.Compress = CodecTopK
			c.CompressK = 0.2
			c.CompressAdapt = true
		}},
		{"hier+topk", func(c *Config) { c.HierGroups = 2; c.TOuter = 2; c.Compress = CodecTopK; c.CompressK = 0.2 }},
		{"hier+qint8", func(c *Config) { c.HierGroups = 2; c.TOuter = 2; c.Compress = CodecQInt8 }},
		{"hier+delayed", func(c *Config) { c.HierGroups = 2; c.TOuter = 2; c.DelayedApply = true }},
		{"hier+delayed+topk", func(c *Config) {
			c.HierGroups = 2
			c.TOuter = 2
			c.DelayedApply = true
			c.Compress = CodecTopK
			c.CompressK = 0.2
		}},
		{"adaptive+hier+delayed", func(c *Config) {
			c.TSched = TSchedAdaptive
			c.HierGroups = 2
			c.TOuter = 2
			c.DelayedApply = true
		}},
	} {
		cfg := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 43,
		}
		tc.mut(&cfg)
		a := Train(cfg, prob)
		b := Train(cfg, prob)
		if len(a.FinalParams) == 0 {
			t.Fatalf("%s: no final params", tc.name)
		}
		for i := range a.FinalParams {
			if a.FinalParams[i] != b.FinalParams[i] {
				t.Fatalf("%s: not run-to-run deterministic at %d", tc.name, i)
			}
		}
	}
}

// TestChaosHierCrashReformsIslands: a crash inside an island must
// re-partition the survivor group by the members' physical islands and
// leave the run bitwise reproducible — the hierarchical leg of the chaos
// contract.
func TestChaosHierCrashReformsIslands(t *testing.T) {
	prob := tinyProblem(48, 24, 11)
	for _, delayed := range []bool{false, true} {
		cfg := Config{
			Algo: AlgoSASGD, Learners: 6, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 6, Seed: 47,
			HierGroups: 3, TOuter: 2, DelayedApply: delayed,
			// Rank 2 (island 1's leader) dies at boundary 1.
			Faults: &comm.FaultPlan{CrashAt: map[int]int{2: 1}, EvictAfter: 3e8},
		}
		a := Train(cfg, prob)
		b := Train(cfg, prob)
		if a.LiveP != 5 {
			t.Fatalf("delayed=%v: LiveP = %d, want 5", delayed, a.LiveP)
		}
		for i := range a.FinalParams {
			if a.FinalParams[i] != b.FinalParams[i] {
				t.Fatalf("delayed=%v: crashed hier run not reproducible at %d", delayed, i)
			}
		}
		for i, v := range a.FinalParams {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("delayed=%v: non-finite param %g at %d after re-form", delayed, v, i)
			}
		}
	}
}
