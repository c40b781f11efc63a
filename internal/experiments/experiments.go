// Package experiments regenerates every table and figure in the paper's
// evaluation (§5), plus the ablations DESIGN.md calls out. Each experiment
// builds a fresh simulated home cluster with paper-calibrated service
// costs, runs the relevant pipelines, and returns structured results the
// vpbench CLI and the benchmark suite render.
//
// Absolute numbers differ from the paper (our substrate is a simulator,
// not their testbed); the reproduced quantities are the *shapes*: who
// wins, by what factor, and where saturation sets in.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// Options configures an experiment run.
type Options struct {
	// RunDuration is the measurement window per configuration; zero
	// selects 3 seconds (long enough for rates to stabilize at the paper's
	// frame rates).
	RunDuration time.Duration
	// Registry supplies the services; nil builds the paper-calibrated
	// standard registry.
	Registry *services.Registry
	// Scene is the exercise the synthetic subject performs; empty selects
	// squat.
	Scene string
	// Supervise runs chaos scenarios under the self-healing supervisor:
	// the injector stops repairing killed pools itself (the supervisor
	// restarts them), and each ChaosRow carries the supervisor's recovery
	// journal. Required for scenarios with unrecoverable faults such as
	// device_crash.
	Supervise bool
}

func (o Options) duration() time.Duration {
	if o.RunDuration <= 0 {
		return 3 * time.Second
	}
	return o.RunDuration
}

func (o Options) scene() string {
	if o.Scene == "" {
		return "squat"
	}
	return o.Scene
}

func (o Options) registry() (*services.Registry, error) {
	if o.Registry != nil {
		return o.Registry, nil
	}
	return services.NewStandardRegistry(services.DefaultOptions())
}

// runFitness launches the fitness pipeline on a fresh cluster and measures
// one window.
func runFitness(reg *services.Registry, spec core.ClusterSpec, planner core.Planner, name string, fps float64, scene string, dur time.Duration) (core.RunResult, error) {
	cluster, err := core.NewCluster(spec, reg)
	if err != nil {
		return core.RunResult{}, err
	}
	defer cluster.Close()
	p, err := cluster.Launch(apps.FitnessConfig(name, fps, scene), planner)
	if err != nil {
		return core.RunResult{}, err
	}
	return p.Run(context.Background(), dur)
}

// ---- Fig. 6: per-stage latency, VideoPipe vs baseline ----

// Fig6Stages are the paper's bars, in display order.
var Fig6Stages = []string{"load_frame", "pose", "activity", "rep_count", "total"}

// Fig6Result holds mean per-stage latencies for both deployments.
type Fig6Result struct {
	VideoPipe map[string]time.Duration
	Baseline  map[string]time.Duration
}

// Fig6 reproduces Fig. 6: per-stage mean latency of the fitness pipeline
// under the VideoPipe plan vs the baseline. The source runs at 10 FPS —
// just below the pipeline's saturation point — so the bars measure
// per-frame processing latency rather than admission queueing, matching
// the paper's per-stage semantics.
func Fig6(o Options) (Fig6Result, error) {
	reg, err := o.registry()
	if err != nil {
		return Fig6Result{}, err
	}
	vp, err := runFitness(reg, apps.HomeClusterSpec(), core.CoLocatePlanner{}, "fig6vp", 10, o.scene(), o.duration())
	if err != nil {
		return Fig6Result{}, fmt.Errorf("experiments: fig6 videopipe: %w", err)
	}
	bl, err := runFitness(reg, apps.BaselineClusterSpec(), core.BaselinePlanner{}, "fig6bl", 10, o.scene(), o.duration())
	if err != nil {
		return Fig6Result{}, fmt.Errorf("experiments: fig6 baseline: %w", err)
	}
	out := Fig6Result{
		VideoPipe: make(map[string]time.Duration),
		Baseline:  make(map[string]time.Duration),
	}
	for _, stage := range Fig6Stages {
		out.VideoPipe[stage] = vp.Stages[stage].Mean
		out.Baseline[stage] = bl.Stages[stage].Mean
	}
	return out, nil
}

// Table renders the result like the paper's figure, as text.
func (r Fig6Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "Stage", "VideoPipe", "Baseline")
	for _, stage := range Fig6Stages {
		fmt.Fprintf(&b, "%-12s %12s %12s\n", stage,
			r.VideoPipe[stage].Round(100*time.Microsecond),
			r.Baseline[stage].Round(100*time.Microsecond))
	}
	return b.String()
}

// ---- Table 2: end-to-end FPS vs source FPS ----

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	SourceFPS float64
	VideoPipe float64
	Baseline  float64
	// Shared holds the two concurrent pipelines' rates when measured
	// (paper columns "(x, y)"); HasShared marks rows with that column.
	Shared    [2]float64
	HasShared bool
}

// Table2Rates are the paper's swept source rates.
var Table2Rates = []float64{5, 10, 20, 30, 60}

// Table2SharedRates are the rows the paper measures with two pipelines.
var Table2SharedRates = []float64{5, 10, 20}

// Table2 reproduces Table 2: end-to-end frame rate of the fitness pipeline
// as the source rate sweeps, for VideoPipe, the baseline, and (on the
// shared rows) two pipelines sharing the pose detector service.
func Table2(o Options, rates, sharedRates []float64) ([]Table2Row, error) {
	reg, err := o.registry()
	if err != nil {
		return nil, err
	}
	if rates == nil {
		rates = Table2Rates
	}
	if sharedRates == nil {
		sharedRates = Table2SharedRates
	}
	sharedSet := make(map[float64]bool, len(sharedRates))
	for _, r := range sharedRates {
		sharedSet[r] = true
	}

	var rows []Table2Row
	for _, rate := range rates {
		row := Table2Row{SourceFPS: rate}

		vp, err := runFitness(reg, apps.HomeClusterSpec(), core.CoLocatePlanner{}, fmt.Sprintf("t2vp%g", rate), rate, o.scene(), o.duration())
		if err != nil {
			return nil, fmt.Errorf("experiments: table2 videopipe @%g: %w", rate, err)
		}
		row.VideoPipe = vp.FPS

		bl, err := runFitness(reg, apps.BaselineClusterSpec(), core.BaselinePlanner{}, fmt.Sprintf("t2bl%g", rate), rate, o.scene(), o.duration())
		if err != nil {
			return nil, fmt.Errorf("experiments: table2 baseline @%g: %w", rate, err)
		}
		row.Baseline = bl.FPS

		if sharedSet[rate] {
			a, b, err := runShared(reg, rate, o)
			if err != nil {
				return nil, fmt.Errorf("experiments: table2 shared @%g: %w", rate, err)
			}
			row.Shared = [2]float64{a, b}
			row.HasShared = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runShared runs the fitness and gesture pipelines concurrently on one
// cluster, sharing the pose-detector pool (§5.2.2).
func runShared(reg *services.Registry, rate float64, o Options) (float64, float64, error) {
	cluster, err := core.NewCluster(apps.HomeClusterSpec(), reg)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()

	fit, err := cluster.Launch(apps.FitnessConfig(fmt.Sprintf("shfit%g", rate), rate, o.scene()), core.CoLocatePlanner{})
	if err != nil {
		return 0, 0, err
	}
	gest, err := cluster.Launch(apps.GestureConfig(fmt.Sprintf("shgest%g", rate), rate, "clap"), core.CoLocatePlanner{})
	if err != nil {
		return 0, 0, err
	}

	var wg sync.WaitGroup
	var fitRes, gestRes core.RunResult
	var fitErr, gestErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		fitRes, fitErr = fit.Run(context.Background(), o.duration())
	}()
	go func() {
		defer wg.Done()
		gestRes, gestErr = gest.Run(context.Background(), o.duration())
	}()
	wg.Wait()
	if fitErr != nil {
		return 0, 0, fitErr
	}
	if gestErr != nil {
		return 0, 0, gestErr
	}
	return fitRes.FPS, gestRes.FPS, nil
}

// FormatTable2 renders rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %10s %10s %16s\n", "Source FPS", "VideoPipe", "Baseline", "Two Pipelines")
	for _, r := range rows {
		shared := "-"
		if r.HasShared {
			shared = fmt.Sprintf("(%.2f, %.2f)", r.Shared[0], r.Shared[1])
		}
		fmt.Fprintf(&b, "%-11g %10.2f %10.2f %16s\n", r.SourceFPS, r.VideoPipe, r.Baseline, shared)
	}
	return b.String()
}

// ---- §4.1.2 / §4.1.3: model accuracies ----

// AccuracyResult reports the activity-recognition evaluation.
type AccuracyResult struct {
	Accuracy float64
	TrainN   int
	TestN    int
}

// ActivityAccuracy reproduces the §4.1.2 claim: k-NN over 15-frame
// hip-normalized windows, trained on all labelled data except a withheld
// test set; the paper reports above 90%.
func ActivityAccuracy(seed int64) (AccuracyResult, error) {
	cfg := vision.DefaultDatasetConfig()
	cfg.Seed = seed
	ds, err := vision.GenerateDataset(cfg)
	if err != nil {
		return AccuracyResult{}, err
	}
	clf := vision.NewActivityClassifier(3)
	if err := clf.Train(ds.Train); err != nil {
		return AccuracyResult{}, err
	}
	acc, err := clf.EvaluateAccuracy(ds.Test)
	if err != nil {
		return AccuracyResult{}, err
	}
	return AccuracyResult{Accuracy: acc, TrainN: len(ds.Train), TestN: len(ds.Test)}, nil
}

// RepCountingAccuracy reproduces the §4.1.3 claim: the 2-means rep counter
// with 4-frame debounce scored against known rep counts; the paper reports
// 83.3%.
func RepCountingAccuracy(trials int, seed int64) ([]vision.RepTrial, float64, error) {
	return vision.EvaluateRepCounting(trials, seed)
}

// ---- §5.2.2 follow-on: scaling out a saturated service ----

// ScaleOutResult compares two shared pipelines before and after the pose
// pool scales from one instance to two.
type ScaleOutResult struct {
	Before [2]float64
	After  [2]float64
}

// ScaleOut reproduces the §5.2.2 implication: when the shared pose service
// saturates, scaling it out (easy, because services are stateless)
// restores per-pipeline frame rates.
func ScaleOut(o Options) (ScaleOutResult, error) {
	reg, err := o.registry()
	if err != nil {
		return ScaleOutResult{}, err
	}
	cluster, err := core.NewCluster(apps.HomeClusterSpec(), reg)
	if err != nil {
		return ScaleOutResult{}, err
	}
	defer cluster.Close()

	fit, err := cluster.Launch(apps.FitnessConfig("sofit", 30, o.scene()), core.CoLocatePlanner{})
	if err != nil {
		return ScaleOutResult{}, err
	}
	gest, err := cluster.Launch(apps.GestureConfig("sogest", 30, "clap"), core.CoLocatePlanner{})
	if err != nil {
		return ScaleOutResult{}, err
	}

	measure := func() ([2]float64, error) {
		var wg sync.WaitGroup
		var fitRes, gestRes core.RunResult
		var fitErr, gestErr error
		cluster.Metrics().Reset()
		wg.Add(2)
		go func() {
			defer wg.Done()
			fitRes, fitErr = fit.Run(context.Background(), o.duration())
		}()
		go func() {
			defer wg.Done()
			gestRes, gestErr = gest.Run(context.Background(), o.duration())
		}()
		wg.Wait()
		if fitErr != nil {
			return [2]float64{}, fitErr
		}
		if gestErr != nil {
			return [2]float64{}, gestErr
		}
		return [2]float64{fitRes.FPS, gestRes.FPS}, nil
	}

	var out ScaleOutResult
	if out.Before, err = measure(); err != nil {
		return ScaleOutResult{}, err
	}
	pool, err := cluster.Pool(services.PoseDetector)
	if err != nil {
		return ScaleOutResult{}, err
	}
	if err := pool.Scale(2); err != nil {
		return ScaleOutResult{}, err
	}
	if out.After, err = measure(); err != nil {
		return ScaleOutResult{}, err
	}
	return out, nil
}
