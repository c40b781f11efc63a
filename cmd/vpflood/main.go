// Command vpflood is the open-loop saturation harness: it floods fleets
// of pipelines with a seeded arrival schedule, reports latency
// percentiles and achieved-vs-offered throughput, and sweeps offered rate
// up a geometric ladder until the latency knee appears.
//
// Usage:
//
//	vpflood -mix pose -rate 5                 # one run at a fixed rate
//	vpflood -sweep -mix all                   # knee-finding sweeps, all mixes
//	vpflood -sweep -gate BENCH_baseline.json  # sweep, then regression-gate
//	vpflood -sweep -tune                      # sweep with the adaptive tuner on
//	vpflood -tunediff -mix pose               # tuned vs untuned knee diff
//
// Mixes: pose (fitness pipelines), multistage (fitness/gesture/fall
// rotation), scripted (pure-PipeScript stages, no services), all.
//
// Sweeps write one BENCH_results.json row per ladder step plus a
// per-mix knee summary (-out); every metric key is validated against the
// generated meter registry, like vpbench. Tuned sweeps (-tune) write
// their rows under <mix>_tuned_* names, so tuned and untuned baselines
// coexist in one report. With -gate, the fresh knee entries are diffed
// against a checked-in baseline report: the build fails when knee
// throughput drifts past -tolerance or any set tail budget (-p95budget,
// -p99budget, -p999budget) is exceeded. With -tunediff, each mix is swept
// twice — tuner off, then on — and the build fails when the tuned knee
// does not beat the untuned one by at least -tunemargin. -profile writes
// pprof CPU/heap profiles per sweep step.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"videopipe/internal/benchio"
	"videopipe/internal/experiments"
	"videopipe/internal/flood"
	"videopipe/internal/metrics"
)

func main() {
	var (
		mix        = flag.String("mix", "pose", "workload mix: pose|multistage|scripted|all")
		pipelines  = flag.Int("pipelines", 4, "concurrent pipelines per run")
		rate       = flag.Float64("rate", 5, "offered events/sec per pipeline (single-run mode)")
		dur        = flag.Duration("dur", 3*time.Second, "injection window per run")
		process    = flag.String("process", "poisson", "inter-arrival process: poisson|uniform")
		seed       = flag.Int64("seed", 1, "schedule seed; same seed, byte-identical schedules")
		sweep      = flag.Bool("sweep", false, "step offered rate up a ladder until the latency knee")
		start      = flag.Float64("start", 1, "sweep: first per-pipeline rate (events/sec)")
		factor     = flag.Float64("factor", 2, "sweep: rate multiplier between steps")
		maxsteps   = flag.Int("maxsteps", 8, "sweep: maximum ladder steps")
		p99budget  = flag.Duration("p99budget", 400*time.Millisecond, "sweep stop / gate: end-to-end p99 ceiling")
		minach     = flag.Float64("minachieved", 0.85, "sweep: delivery floor for a rung to count toward the knee")
		collapse   = flag.Float64("collapse", 0.75, "sweep stop: achieved/offered fraction ending the ladder")
		out        = flag.String("out", "BENCH_results.json", "machine-readable report path (empty disables)")
		gate       = flag.String("gate", "", "baseline report to regression-gate a sweep against (implies -sweep)")
		tolerance  = flag.Float64("tolerance", 0.15, "gate: allowed relative knee_eps drift")
		p95budget  = flag.Duration("p95budget", 0, "gate: absolute knee p95 ceiling (0 skips)")
		p999budget = flag.Duration("p999budget", 0, "gate: absolute knee p99.9 ceiling (0 skips)")
		tune       = flag.Bool("tune", false, "run the adaptive runtime tuner (pool scaling/credits)")
		tunediff   = flag.Bool("tunediff", false, "sweep each mix untuned then tuned and compare knees (implies -sweep)")
		tunemargin = flag.Float64("tunemargin", 0, "tunediff: minimum relative tuned-over-untuned knee improvement")
		profile    = flag.String("profile", "", "sweep: directory for per-step pprof CPU/heap profiles")
	)
	flag.Parse()

	// Fail fast: report keys are validated against the generated meter
	// registry at write time; an empty registry would only surface after
	// the sweeps finish.
	if *out != "" && len(metrics.MeterNamePatterns) == 0 {
		fmt.Fprintln(os.Stderr, "vpflood: meter-name registry is empty; regenerate internal/metrics/names.go with `make meters`")
		os.Exit(2)
	}

	err := run(config{
		mix:        *mix,
		pipelines:  *pipelines,
		rate:       *rate,
		dur:        *dur,
		process:    *process,
		seed:       *seed,
		sweep:      *sweep || *gate != "" || *tunediff,
		start:      *start,
		factor:     *factor,
		maxsteps:   *maxsteps,
		p99budget:  *p99budget,
		minach:     *minach,
		collapse:   *collapse,
		out:        *out,
		gate:       *gate,
		tolerance:  *tolerance,
		p95budget:  *p95budget,
		p999budget: *p999budget,
		tune:       *tune,
		tunediff:   *tunediff,
		tunemargin: *tunemargin,
		profile:    *profile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpflood:", err)
		os.Exit(1)
	}
}

type config struct {
	mix        string
	pipelines  int
	rate       float64
	dur        time.Duration
	process    string
	seed       int64
	sweep      bool
	start      float64
	factor     float64
	maxsteps   int
	p99budget  time.Duration
	minach     float64
	collapse   float64
	out        string
	gate       string
	tolerance  float64
	p95budget  time.Duration
	p999budget time.Duration
	tune       bool
	tunediff   bool
	tunemargin float64
	profile    string
}

func (c config) mixes() ([]experiments.FloodMix, error) {
	if c.mix == "all" {
		return experiments.FloodMixes(), nil
	}
	m := experiments.FloodMix(c.mix)
	if _, err := experiments.FloodScenarioFor(m); err != nil {
		return nil, err
	}
	return []experiments.FloodMix{m}, nil
}

func run(c config) error {
	proc, err := flood.ParseProcess(c.process)
	if err != nil {
		return err
	}
	mixes, err := c.mixes()
	if err != nil {
		return err
	}
	report := &benchio.Report{
		GeneratedAt: time.Now().UTC(),
		WindowMS:    float64(c.dur) / float64(time.Millisecond),
		Seed:        c.seed,
	}
	base := flood.Options{
		Pipelines: c.pipelines,
		Horizon:   c.dur,
		Process:   proc,
		Seed:      c.seed,
	}
	for _, m := range mixes {
		sc, err := experiments.FloodScenarioFor(m)
		if err != nil {
			return err
		}
		switch {
		case c.tunediff:
			if err := runTuneDiff(report, sc, base, c); err != nil {
				return err
			}
		case c.sweep:
			if _, err := runSweep(report, sc, base, c, c.tune); err != nil {
				return err
			}
		default:
			if err := runSingle(report, sc, base, c); err != nil {
				return err
			}
		}
	}
	if c.out != "" {
		if err := report.Write(c.out); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d entries)\n", c.out, len(report.Experiments))
	}
	if c.gate != "" {
		baseline, err := benchio.Read(c.gate)
		if err != nil {
			return err
		}
		diff, gerr := flood.Gate(baseline, report, flood.GateOptions{
			Tolerance:  c.tolerance,
			P99Budget:  c.p99budget,
			P95Budget:  c.p95budget,
			P999Budget: c.p999budget,
		})
		fmt.Printf("\nregression gate vs %s:\n%s", c.gate, diff)
		if gerr != nil {
			return gerr
		}
		fmt.Println("gate: ok")
	}
	return nil
}

func runSingle(report *benchio.Report, sc experiments.FloodScenario, base flood.Options, c config) error {
	base.Rate = c.rate
	base.Tune = c.tune
	name, label := string(sc.Mix)+"_run", ""
	if c.tune {
		name, label = string(sc.Mix)+"_tuned_run", ", tuned"
	}
	fmt.Printf("== %s: %d pipelines x %.3g eps (%s, %v, seed %d%s)\n",
		sc.Mix, base.Pipelines, base.Rate, base.Process, base.Horizon, base.Seed, label)
	return report.Measure(name, func(e *benchio.Entry) error {
		res, err := flood.Run(sc, base)
		if err != nil {
			return err
		}
		recordRun(e, base.Rate, res)
		fmt.Print(formatRun(res))
		printTunerActions(res.TunerActions)
		return nil
	})
}

// runSweep runs one knee-finding sweep and records it. Tuned sweeps write
// their entries under <mix>_tuned_* so a single report (and the checked-in
// baseline) can hold both operating points side by side. Returns the knee
// estimate so runTuneDiff can compare the two.
func runSweep(report *benchio.Report, sc experiments.FloodScenario, base flood.Options, c config, tuned bool) (float64, error) {
	base.Tune = tuned
	prefix, label := string(sc.Mix), ""
	if tuned {
		prefix, label = string(sc.Mix)+"_tuned", ", tuned"
	}
	fmt.Printf("== %s: sweeping %d pipelines from %.3g eps x%.3g (%s, %v/step, seed %d%s)\n",
		sc.Mix, base.Pipelines, c.start, c.factor, base.Process, base.Horizon, base.Seed, label)
	sw, err := flood.Sweep(sc, flood.SweepOptions{
		Base:        base,
		StartRate:   c.start,
		Factor:      c.factor,
		MaxSteps:    c.maxsteps,
		P99Budget:   c.p99budget,
		MinAchieved: c.minach,
		Collapse:    c.collapse,
		Profile:     c.profile,
	})
	if err != nil {
		return 0, err
	}
	var kneeP95, kneeP99, kneeP999 time.Duration
	kneeActions := 0
	for i, st := range sw.Steps {
		e := &benchio.Entry{Name: fmt.Sprintf("%s_step%d", prefix, i)}
		recordRun(e, st.Rate, st.Result)
		if tuned {
			e.Set("tuner_actions", float64(len(st.Result.TunerActions)))
		}
		report.Experiments = append(report.Experiments, e)
		fmt.Printf("  step %d: offered %7.2f eps  achieved %7.2f eps  p99 %v  drops %d",
			i, st.Result.OfferedEPS, st.Result.AchievedEPS, st.Result.E2E.P99, st.Result.DroppedSource)
		if tuned {
			fmt.Printf("  tuner acts %d", len(st.Result.TunerActions))
		}
		fmt.Println()
		printTunerActions(st.Result.TunerActions)
		if st.Result.AchievedEPS == sw.KneeEPS {
			kneeP95 = st.Result.E2E.P95
			kneeP99 = st.Result.E2E.P99
			kneeP999 = st.Result.E2E.P999
			kneeActions = len(st.Result.TunerActions)
		}
	}
	knee := &benchio.Entry{Name: prefix + "_knee"}
	knee.Set("knee_eps", sw.KneeEPS)
	knee.Set("steps", float64(len(sw.Steps)))
	knee.SetDurationMS("p95_ms", kneeP95)
	knee.SetDurationMS("p99_ms", kneeP99)
	knee.SetDurationMS("p999_ms", kneeP999)
	if tuned {
		knee.Set("tuner_actions", float64(kneeActions))
	}
	report.Experiments = append(report.Experiments, knee)
	fmt.Printf("  knee: %.2f eps aggregate (%s)\n", sw.KneeEPS, sw.StopReason)
	return sw.KneeEPS, nil
}

// runTuneDiff sweeps the mix twice — tuner off, then on — and fails when
// the tuned knee does not clear the untuned one by tunemargin. Both sweeps
// land in the report, so one -tunediff run regenerates a full baseline.
func runTuneDiff(report *benchio.Report, sc experiments.FloodScenario, base flood.Options, c config) error {
	untuned, err := runSweep(report, sc, base, c, false)
	if err != nil {
		return err
	}
	tuned, err := runSweep(report, sc, base, c, true)
	if err != nil {
		return err
	}
	gain := 0.0
	if untuned > 0 {
		gain = (tuned - untuned) / untuned
	}
	fmt.Printf("== %s tunediff: untuned %.2f eps, tuned %.2f eps (%+.1f%%, required %+.1f%%)\n",
		sc.Mix, untuned, tuned, gain*100, c.tunemargin*100)
	if tuned < untuned*(1+c.tunemargin) {
		return fmt.Errorf("%s: tuned knee %.2f eps below required %.2f eps (untuned %.2f eps + %.0f%% margin)",
			sc.Mix, tuned, untuned*(1+c.tunemargin), untuned, c.tunemargin*100)
	}
	return nil
}

// printTunerActions lists the tuner's journal for a run, indented under
// the run's stats. Quiet when the tuner did nothing.
func printTunerActions(acts []string) {
	if len(acts) == 0 {
		return
	}
	fmt.Printf("  tuner journal (%d actions):\n", len(acts))
	for _, a := range acts {
		fmt.Printf("    %s\n", a)
	}
}

// recordRun writes one run's metrics onto a report entry. Keys are
// literal so the metername analyzer registers and checks them.
func recordRun(e *benchio.Entry, ratePerPipeline float64, r flood.Result) {
	e.Set("pipelines", float64(r.Pipelines))
	e.Set("rate_per_pipeline_eps", ratePerPipeline)
	e.Set("offered_eps", r.OfferedEPS)
	e.Set("achieved_eps", r.AchievedEPS)
	e.Set("delivered", float64(r.Delivered))
	e.Set("dropped_source", float64(r.DroppedSource))
	e.SetDurationMS("p50_ms", r.E2E.P50)
	e.SetDurationMS("p95_ms", r.E2E.P95)
	e.SetDurationMS("p99_ms", r.E2E.P99)
	e.SetDurationMS("p999_ms", r.E2E.P999)
	e.SetDurationMS("gen_lateness_p99_ms", r.GenLateness.P99)
}

func formatRun(r flood.Result) string {
	return fmt.Sprintf(
		"  offered %.2f eps (%d events)  achieved %.2f eps  admitted %d  dropped %d\n"+
			"  e2e p50 %v  p95 %v  p99 %v  p99.9 %v  (gen lateness p99 %v)\n",
		r.OfferedEPS, r.Offered, r.AchievedEPS, r.Admitted, r.DroppedSource,
		r.E2E.P50, r.E2E.P95, r.E2E.P99, r.E2E.P999, r.GenLateness.P99)
}
