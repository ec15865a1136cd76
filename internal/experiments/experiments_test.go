package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/model"
)

func TestTableIMatchesPaper(t *testing.T) {
	r := TableI(Opt{})
	if r.Params != 506378 {
		t.Errorf("Table I parameters = %d, want 506378 (≈0.5M)", r.Params)
	}
	for _, want := range []string{"Conv2D (3,64,5,5)", "Conv2D (64,128,3,3)", "Conv2D (128,256,3,3)", "Conv2D (256,128,2,2)", "Linear 128→10", "Dropout"} {
		if !strings.Contains(r.Summary, want) {
			t.Errorf("Table I summary missing %q:\n%s", want, r.Summary)
		}
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	r := TableII(Opt{})
	want := 100*200 + 200 + 1000*400 + 1000 + 1000*1000 + 1000 + 1000*311 + 311
	if r.Params != want {
		t.Errorf("Table II parameters = %d, want %d (≈2M)", r.Params, want)
	}
	for _, s := range []string{"TemporalConv (100,200)", "TemporalConv (200,1000)", "Linear 1000→1000", "Linear 1000→311"} {
		if !strings.Contains(r.Summary, s) {
			t.Errorf("Table II summary missing %q:\n%s", s, r.Summary)
		}
	}
}

func TestTheorem1RowsMatchPrediction(t *testing.T) {
	rows := Theorem1(Opt{})
	if len(rows) == 0 {
		t.Fatal("no Theorem 1 rows")
	}
	for _, r := range rows {
		if r.Gap < r.PredGap*0.6 || r.Gap > r.PredGap*1.6 {
			t.Errorf("p=%d α=%g: gap %.3f not ≈ p/α = %.3f", r.P, r.Alpha, r.Gap, r.PredGap)
		}
	}
	// The paper's example: p=32, α=16 → gap ≈ 2.
	for _, r := range rows {
		if r.P == 32 && r.Alpha == 16 {
			if r.Gap < 1.5 || r.Gap > 2.7 {
				t.Errorf("paper example gap = %.3f, want ≈2", r.Gap)
			}
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing figure: skipped in -short")
	}
	var buf bytes.Buffer
	rows := Fig1(Opt{Out: &buf, Ps: []int{1, 8}})
	if len(rows) != 4 {
		t.Fatalf("Fig1 rows = %d, want 4", len(rows))
	}
	byKey := map[string]Fig1Row{}
	for _, r := range rows {
		byKey[r.Workload+itoa(r.P)] = r
	}
	// Paper: NLC-F communication share > 60% at every p.
	for _, p := range []int{1, 8} {
		if r := byKey["NLC-F"+itoa(p)]; r.CommPct < 60 {
			t.Errorf("NLC-F p=%d comm%% = %.1f, want > 60", p, r.CommPct)
		}
	}
	// Paper: CIFAR-10 ≈20% at p=1 rising to ≈30% at p=8.
	c1, c8 := byKey["CIFAR-10"+itoa(1)], byKey["CIFAR-10"+itoa(8)]
	if c1.CommPct < 10 || c1.CommPct > 30 {
		t.Errorf("CIFAR-10 p=1 comm%% = %.1f, want ≈20", c1.CommPct)
	}
	if c8.CommPct <= c1.CommPct {
		t.Errorf("CIFAR-10 comm%% did not grow with p: %.1f -> %.1f", c1.CommPct, c8.CommPct)
	}
	if c8.CommPct > 55 {
		t.Errorf("CIFAR-10 p=8 comm%% = %.1f, want ≈30", c8.CommPct)
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("Fig1 printed no table")
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing figure: skipped in -short")
	}
	r := Fig4(Opt{Ps: []int{1, 8}})
	if r.SeqSecs <= 0 {
		t.Fatal("no sequential reference time")
	}
	// Paper: T=50 ≈1.3× faster than T=1 at p=8.
	ratio := r.EpochSecsAt(1, 8) / r.EpochSecsAt(50, 8)
	if ratio < 1.1 || ratio > 1.7 {
		t.Errorf("CIFAR T=1/T=50 epoch-time ratio at p=8 = %.2f, want ≈1.3", ratio)
	}
	// Speedup over sequential at p=8, T=50 is substantial but sublinear.
	sp := r.SpeedupAt(50, 8)
	if sp < 3 || sp > 8 {
		t.Errorf("CIFAR speedup at (T=50, p=8) = %.2f, want sublinear in (3, 8)", sp)
	}
}

func TestFig5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing figure: skipped in -short")
	}
	r := Fig5(Opt{Ps: []int{1, 8}})
	// Paper: T=50 ≈9.7× faster than T=1 at p=8 for NLC-F.
	ratio := r.EpochSecsAt(1, 8) / r.EpochSecsAt(50, 8)
	if ratio < 6 || ratio > 13 {
		t.Errorf("NLC-F T=1/T=50 epoch-time ratio at p=8 = %.2f, want ≈9.7", ratio)
	}
	sp := r.SpeedupAt(50, 8)
	if sp < 3.5 || sp > 8 {
		t.Errorf("NLC-F speedup at (T=50, p=8) = %.2f, want ≈5.35", sp)
	}
}

func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing figure: skipped in -short")
	}
	rows := Fig6(Opt{})
	get := func(w string, algo core.Algorithm, T int) float64 {
		for _, r := range rows {
			if r.Workload == w && r.Algo == algo && r.T == T {
				return r.EpochSecs
			}
		}
		t.Fatalf("missing row %s/%s/T=%d", w, algo, T)
		return 0
	}
	for _, w := range []string{"CIFAR-10", "NLC-F"} {
		// Paper: at T=1 SASGD beats the parameter-server baselines.
		if get(w, core.AlgoSASGD, 1) >= get(w, core.AlgoDownpour, 1) {
			t.Errorf("%s: SASGD not faster than Downpour at T=1", w)
		}
		// Paper: at T=50 all three are similar (within 15%).
		s, d := get(w, core.AlgoSASGD, 50), get(w, core.AlgoDownpour, 50)
		if d/s > 1.15 || s/d > 1.15 {
			t.Errorf("%s: T=50 epoch times not similar (sasgd %.3f vs downpour %.3f)", w, s, d)
		}
	}
	// Paper: the NLC-F T=1 training-time reduction is large ("up to 50%").
	red := 1 - get("NLC-F", core.AlgoSASGD, 1)/get("NLC-F", core.AlgoDownpour, 1)
	if red < 0.25 {
		t.Errorf("NLC-F T=1 SASGD time reduction = %.0f%%, want substantial", 100*red)
	}
}

func TestFig2GapGrowsWithP(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence figure: skipped in -short")
	}
	r := Fig2(Opt{Epochs: 8, Ps: []int{1, 16}})
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Over the whole (short) budget, p=16 must lag p=1 at the practical
	// rate: compare mean test accuracy across the recorded epochs, with a
	// small tolerance because the asynchronous run is nondeterministic.
	p1 := r.Runs[0].Curve.AUC()
	p16 := r.Runs[1].Curve.AUC()
	if p16 >= p1+0.02 {
		t.Errorf("Downpour p=16 (AUC %.3f) not behind p=1 (AUC %.3f) at γ=0.15", p16, p1)
	}
}

func TestFig3SmallRateOverlapsAndUnderperforms(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence figure: skipped in -short")
	}
	small := Fig3(Opt{Epochs: 8, Ps: []int{1, 16}})
	big := Fig2(Opt{Epochs: 8, Ps: []int{1}})
	s1 := small.Runs[0].FinalTest
	s16 := small.Runs[1].FinalTest
	// Overlap: the small-rate curves for p=1 and p=16 end close together.
	if diff := s16 - s1; diff < -0.12 || diff > 0.2 {
		t.Errorf("small-rate curves do not overlap: p=1 %.3f vs p=16 %.3f", s1, s16)
	}
	// Sub-optimality: far below the practical-rate p=1 accuracy.
	if s1 >= big.Runs[0].FinalTest {
		t.Errorf("theory rate (%.3f) not below practical rate (%.3f) at equal epochs", s1, big.Runs[0].FinalTest)
	}
}

func TestFig7SASGDDegradesWithT(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence figure: skipped in -short")
	}
	panels := Fig7(Opt{Epochs: 8, Ps: []int{16}, Ts: []int{1, 50}})
	if len(panels) != 1 {
		t.Fatalf("panels = %d", len(panels))
	}
	p := panels[0]
	t1, t50 := p.FinalTestAt(1), p.FinalTestAt(50)
	if t50 >= t1 {
		t.Errorf("SASGD p=16: T=50 accuracy (%.3f) not below T=1 (%.3f) at a short budget", t50, t1)
	}
}

func TestFig9SASGDBeatsBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence figure: skipped in -short")
	}
	panels := Fig9(Opt{Epochs: 8, Ps: []int{8}})
	runs := panels[0].Runs
	sasgd := runs[core.AlgoSASGD].FinalTest
	downpour := runs[core.AlgoDownpour].FinalTest
	if sasgd <= downpour {
		t.Errorf("SASGD (%.3f) did not beat Downpour (%.3f) at T=50, p=8", sasgd, downpour)
	}
	// Paper: Downpour degenerates toward random guess (10%) on CIFAR at
	// p ≥ 8 with T=50.
	if downpour > 0.45 {
		t.Errorf("Downpour at T=50, p=8 = %.3f; expected severe degradation", downpour)
	}
	if sasgd < 0.6 {
		t.Errorf("SASGD at T=50, p=8 = %.3f; expected stable convergence", sasgd)
	}
}

func TestFig10SASGDHoldsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence figure: skipped in -short")
	}
	panels := Fig10(Opt{Epochs: 12, Ps: []int{16}})
	runs := panels[0].Runs
	sasgd := runs[core.AlgoSASGD]
	if sasgd.FinalTest < 0.5 {
		t.Errorf("SASGD NLC-F test accuracy %.3f, want ≈ the ≈57%% ceiling", sasgd.FinalTest)
	}
	if sasgd.FinalTrain < 0.95 {
		t.Errorf("SASGD NLC-F train accuracy %.3f, want ≈100%%", sasgd.FinalTrain)
	}
	if down := runs[core.AlgoDownpour].FinalTest; down >= sasgd.FinalTest {
		t.Errorf("Downpour (%.3f) not below SASGD (%.3f) on NLC-F at p=16", down, sasgd.FinalTest)
	}
}

func TestWorkloadCostProfiles(t *testing.T) {
	img := ImageWorkload()
	txt := TextWorkload()
	if img.PaperCost.Params != 506378 {
		t.Errorf("image paper params = %d", img.PaperCost.Params)
	}
	if txt.PaperCost.Params <= img.PaperCost.Params {
		t.Error("NLC-F model should be larger than CIFAR's (≈2M vs ≈0.5M)")
	}
	if img.SmallParams >= img.PaperCost.Params {
		t.Error("reduced-scale image model not smaller than paper model")
	}
	if img.Batch <= 0 || txt.Batch != 1 {
		t.Errorf("batch sizes: img %d, txt %d", img.Batch, txt.Batch)
	}
}

// TestPaperCostMatchesFreshNetwork: the once-per-process paper costs
// equal NetworkCost of a freshly built paper-scale network, at both
// scales and on repeated workload construction.
func TestPaperCostMatchesFreshNetwork(t *testing.T) {
	cifar := model.NetworkCost(model.NewCIFARNet(rand.New(rand.NewSource(7)), model.PaperCIFARConfig()))
	nlcf := model.NetworkCost(model.NewNLCFNet(rand.New(rand.NewSource(7)), model.PaperNLCFConfig()))
	for i := 0; i < 2; i++ {
		if got := ImageWorkload().PaperCost; got != cifar {
			t.Errorf("image PaperCost %+v, want %+v", got, cifar)
		}
		if got := TextWorkload().PaperCost; got != nlcf {
			t.Errorf("text PaperCost %+v, want %+v", got, nlcf)
		}
	}
}

func TestOptDefaults(t *testing.T) {
	var o Opt
	if o.epochs(7) != 7 {
		t.Error("epochs default")
	}
	if got := o.ps([]int{1, 2}); len(got) != 2 {
		t.Error("ps default")
	}
	o.Ps = []int{4}
	if got := o.ps([]int{1, 2}); len(got) != 1 || got[0] != 4 {
		t.Error("ps override")
	}
	if o.out() == nil {
		t.Error("out() returned nil")
	}
}

func TestDerivedRateFallsBelowPractical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-batch gradient estimation: skipped in -short")
	}
	r := DerivedRate(Opt{})
	if r.Rate <= 0 {
		t.Fatalf("derived rate %g", r.Rate)
	}
	// The paper's point: the analysis-prescribed rate is far below the
	// practical one (0.005 vs 0.1 on their setup).
	if r.Rate >= ImageWorkload().Gamma/2 {
		t.Errorf("derived rate %g not well below the practical %g", r.Rate, ImageWorkload().Gamma)
	}
	if r.Constants.L <= 0 || r.Constants.Sigma2 <= 0 || r.Constants.Df <= 0 {
		t.Errorf("degenerate constants: %+v", r.Constants)
	}
}

func TestAveragingVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence experiment: skipped in -short")
	}
	rows := AveragingVariants(Opt{Epochs: 10})
	byName := map[string]AveragingRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	endAvg := byName["average-at-end (Zinkevich)"]
	everyBatch := byName["average-every-minibatch (Li)"]
	sasgd := byName["SASGD T=50"]
	// Paper: one-shot averaging gives "very poor" accuracy relative to a
	// tuned interval.
	if endAvg.FinalTest >= sasgd.FinalTest-0.05 {
		t.Errorf("average-at-end (%.3f) not clearly below SASGD T=50 (%.3f)", endAvg.FinalTest, sasgd.FinalTest)
	}
	// Paper: per-minibatch averaging converges fine but costs more time
	// per epoch than the amortized interval.
	if everyBatch.FinalTest < sasgd.FinalTest-0.08 {
		t.Errorf("average-every-minibatch accuracy %.3f unexpectedly poor", everyBatch.FinalTest)
	}
	if everyBatch.EpochSecs <= sasgd.EpochSecs {
		t.Errorf("per-minibatch averaging epoch time %.3f not above T=50's %.3f", everyBatch.EpochSecs, sasgd.EpochSecs)
	}
}

func TestFormatHelpers(t *testing.T) {
	if itoa(42) != "42" {
		t.Error("itoa")
	}
	if ftoa(1.5) != "1.5" {
		t.Error("ftoa")
	}
	if ftoa3(1.23456) != "1.235" {
		t.Error("ftoa3")
	}
}

func TestScaleSelection(t *testing.T) {
	// The paper-scale *image* dataset is 50k 32×32×3 samples — too heavy
	// to generate in a unit test — so verify the image path via its
	// config constants and exercise the full paper-scale path on the
	// cheap text workload.
	if cfg := data.PaperImageConfig(); cfg.TrainN != 50000 || cfg.Size != 32 {
		t.Errorf("paper image config %+v", cfg)
	}
	small := ImageWorkloadAt(ScaleSmall)
	if small.Problem.Train.Len() >= 50000 {
		t.Error("small scale not smaller than paper scale")
	}

	tp := TextWorkloadAt(ScalePaper)
	if tp.Problem.Train.Len() != 2500 || tp.Gamma != 0.1 {
		t.Errorf("paper-scale NLC-F: n=%d γ=%g", tp.Problem.Train.Len(), tp.Gamma)
	}
	if tp.SmallParams != tp.PaperCost.Params {
		t.Errorf("paper-scale executed model (%d params) should equal the paper model (%d)",
			tp.SmallParams, tp.PaperCost.Params)
	}
	if tp.Epochs != 200 {
		t.Errorf("paper-scale NLC-F epochs = %d", tp.Epochs)
	}
}
