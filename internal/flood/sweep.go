package flood

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/experiments"
)

// SweepOptions configures a knee-finding sweep: a geometric ladder of
// offered rates, stepped until the system visibly saturates.
type SweepOptions struct {
	// Base carries the per-run knobs (fleet size, horizon, process,
	// seed). Base.Rate is ignored; the ladder sets each step's rate.
	Base Options
	// StartRate is the ladder's first per-pipeline rate in events per
	// second; zero selects 1.
	StartRate float64
	// Factor is the ladder's multiplier between steps; values <= 1 select
	// 2.
	Factor float64
	// MaxSteps bounds the ladder; zero selects 8.
	MaxSteps int
	// P99Budget is the latency ceiling a rung must meet for its achieved
	// rate to count toward the knee; zero selects 400ms. The default must
	// leave headroom above the fleet's burst floor: the pose-bearing
	// chains serialize an ~85ms stage per lane, so absorbing a burst of
	// three frames — the whole point of a tuned admission window — costs
	// ~275ms end-to-end. A 250ms ceiling sits below that floor and turns
	// the tuned-vs-untuned comparison into a coin flip on burst timing;
	// 400ms prices real burst absorption while still failing collapse.
	P99Budget time.Duration
	// MinAchieved is the delivery floor a rung must clear for its
	// achieved rate to count toward the knee; zero selects 0.85. The
	// default sits under the pre-knee delivery band: a system's last good
	// rung delivers 90%+ of offered (the credit-limited mixes shed ~10%
	// at the source and still meet the latency budget), so a floor at
	// 0.95 rides the edge of pre-knee measurement noise and turns the
	// knee into a coin flip.
	MinAchieved float64
	// Collapse ends the sweep once achieved throughput falls below this
	// fraction of offered; zero selects 0.75. Deliberately lower than
	// MinAchieved: rungs in the 75–85% band are overloaded but not yet
	// collapsed, and their delivery fraction wobbles a few percent run to
	// run — a ladder that stops inside that band has a coin-flip length,
	// and with it a coin-flip knee whenever the best rung lies beyond.
	// Stopping only on deep collapse costs at most a rung or two of extra
	// runtime and keeps the ladder's reach deterministic.
	Collapse float64
	// Profile, when set, writes pprof CPU and heap profiles for every
	// step into this directory (<mix>_step<k>.cpu.pprof / .heap.pprof).
	Profile string
}

func (o SweepOptions) withDefaults() SweepOptions {
	o.Base = o.Base.withDefaults()
	if o.StartRate <= 0 {
		o.StartRate = 1
	}
	if o.Factor <= 1 {
		o.Factor = 2
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 8
	}
	if o.P99Budget <= 0 {
		o.P99Budget = 400 * time.Millisecond
	}
	if o.MinAchieved <= 0 {
		o.MinAchieved = 0.85
	}
	if o.Collapse <= 0 {
		o.Collapse = 0.75
	}
	// A tuned sweep with no explicit tuner config gets one that defends
	// the sweep's own latency budget.
	if o.Base.Tune && o.Base.TuneConfig == nil {
		o.Base.TuneConfig = &core.TunerConfig{P99Target: o.P99Budget, Seed: o.Base.Seed}
	}
	return o
}

// Step is one rung of the ladder: the offered per-pipeline rate and the
// run it produced.
type Step struct {
	// Rate is the per-pipeline offered rate for this step.
	Rate float64
	// Result is the step's measurement.
	Result Result
}

// SweepResult is a completed sweep.
type SweepResult struct {
	// Mix names the workload that was swept.
	Mix experiments.FloodMix
	// Steps are the ladder rungs that ran, in order.
	Steps []Step
	// KneeEPS is the capacity estimate: the highest achieved aggregate
	// rate observed across the sweep's fully-compliant steps — merged e2e
	// p99 within P99Budget AND at least MinAchieved of offered delivered.
	// Capacity at equal latency budget, so tuned and untuned knees
	// compare fairly. Rungs past the collapse are deliberately not
	// credited even when their tail happens to fit the budget: throughput
	// salvaged during overload swings ±20% run to run (it depends on
	// where drops land in the schedule), while pre-collapse rungs repeat
	// to within a couple percent — and a gate needs the stable number.
	KneeEPS float64
	// StopReason records which criterion ended the sweep.
	StopReason string
}

// Sweep steps the offered rate up a geometric ladder, running each step
// on a fresh cluster, until achieved throughput falls behind offered or
// the ladder runs out. The saturating step is still recorded — the knee
// estimate needs the rung past the cliff to know the cliff is real.
func Sweep(sc experiments.FloodScenario, o SweepOptions) (SweepResult, error) {
	o = o.withDefaults()
	sw := SweepResult{Mix: sc.Mix}
	rate := o.StartRate
	// Tuned sweeps carry learned setpoints from rung to rung: the knee
	// then measures the tuned steady state, the way a long-lived
	// deployment meets rising load — not each rung's cold-start transient.
	var carried *core.TuningSetpoints
	for step := 0; step < o.MaxSteps; step++ {
		base := o.Base
		base.Rate = rate
		base.InitialTuning = carried
		// Each step draws fresh schedules, still pinned to the run seed.
		base.Seed = o.Base.Seed + int64(step)*7919
		res, err := profiledRun(sc, base, o.Profile, step)
		if err != nil {
			return sw, fmt.Errorf("flood: sweep step %d (rate %.3g): %w", step, rate, err)
		}
		if base.Tune {
			carried = &res.Tuning
		}
		sw.Steps = append(sw.Steps, Step{Rate: rate, Result: res})
		// Only fully-compliant steps advance the knee: capacity past the
		// latency budget is not capacity the gate should credit, and
		// neither is throughput salvaged during a collapse rung (see
		// KneeEPS). A blown rung does not end the sweep, though —
		// compliance is not monotone in offered rate when the system
		// adapts between rungs (the rung where the tuner learns eats a
		// transient the next, warm-started rung never pays), so the
		// ladder climbs until throughput itself collapses.
		if res.E2E.P99 <= o.P99Budget &&
			res.AchievedEPS >= o.MinAchieved*res.OfferedEPS &&
			res.AchievedEPS > sw.KneeEPS {
			sw.KneeEPS = res.AchievedEPS
		}
		if res.AchievedEPS < o.Collapse*res.OfferedEPS {
			sw.StopReason = fmt.Sprintf("achieved %.3g eps collapsed below %.0f%% of offered %.3g eps at %.3g eps/pipeline",
				res.AchievedEPS, o.Collapse*100, res.OfferedEPS, rate)
			return sw, nil
		}
		rate *= o.Factor
	}
	sw.StopReason = fmt.Sprintf("ladder exhausted after %d steps without saturating", o.MaxSteps)
	return sw, nil
}

// profiledRun wraps Run with per-step pprof capture when dir is set: a
// CPU profile spanning the run and a heap snapshot at its end.
func profiledRun(sc experiments.FloodScenario, base Options, dir string, step int) (Result, error) {
	if dir == "" {
		return Run(sc, base)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Result{}, fmt.Errorf("flood: profile dir: %w", err)
	}
	prefix := filepath.Join(dir, fmt.Sprintf("%s_step%d", sc.Mix, step))
	cpuF, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return Result{}, fmt.Errorf("flood: profile: %w", err)
	}
	cpuStarted := pprof.StartCPUProfile(cpuF) == nil
	res, runErr := Run(sc, base)
	if cpuStarted {
		pprof.StopCPUProfile()
	}
	cpuF.Close()
	heapF, err := os.Create(prefix + ".heap.pprof")
	if err == nil {
		runtime.GC() // fold transient allocations so the heap profile shows what's retained
		_ = pprof.WriteHeapProfile(heapF)
		heapF.Close()
	}
	return res, runErr
}
