package flood

import (
	"context"
	"fmt"
	"sync"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/experiments"
	"videopipe/internal/frame"
	"videopipe/internal/metrics"
)

// Options configures one open-loop run.
type Options struct {
	// Pipelines is the fleet size; zero selects 4.
	Pipelines int
	// Rate is the offered rate per pipeline in events per second; zero
	// selects 5.
	Rate float64
	// Horizon is the injection window; zero selects 3 seconds.
	Horizon time.Duration
	// Process is the inter-arrival model; empty selects Poisson.
	Process Process
	// Seed determines every schedule in the fleet (via PipelineSeed) and
	// the merged histogram's reservoir; zero selects 1.
	Seed int64
	// Planner places modules; nil selects the cluster default
	// (CoLocatePlanner).
	Planner core.Planner
	// DrainTimeout bounds the wait for in-flight frames after the last
	// injection; zero selects 5 seconds.
	DrainTimeout time.Duration
	// Tune runs the adaptive runtime tuner (core.Tuner) against the fleet
	// for the duration of the run: dynamic batching, pool scaling, credit
	// resizing and measured-cost re-planning, journaled into the result.
	Tune bool
	// TuneConfig overrides the tuner's knobs; nil selects defaults seeded
	// from the run seed.
	TuneConfig *core.TunerConfig
	// InitialTuning, when set (and Tune is on), primes the fresh cluster
	// with previously learned setpoints before injection starts — how a
	// sweep carries tuning from rung to rung.
	InitialTuning *core.TuningSetpoints
}

func (o Options) withDefaults() Options {
	if o.Pipelines <= 0 {
		o.Pipelines = 4
	}
	if o.Rate <= 0 {
		o.Rate = 5
	}
	if o.Horizon <= 0 {
		o.Horizon = 3 * time.Second
	}
	if o.Process == "" {
		o.Process = Poisson
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// Result is one run's measurement: offered vs achieved throughput plus
// the latency distributions.
type Result struct {
	// Pipelines is the fleet size that ran.
	Pipelines int
	// Offered is the total number of scheduled arrival events.
	Offered int
	// OfferedEPS is the aggregate offered rate (Offered / Horizon).
	OfferedEPS float64
	// Admitted counts frames the pipelines accepted at the source.
	Admitted uint64
	// DroppedSource counts frames rejected at admission (no credit) —
	// the open-loop generator never waits, so overload lands here.
	DroppedSource uint64
	// Delivered counts frames that reached frame_done anywhere in the
	// fleet (sinks and early-completing intermediate modules alike).
	Delivered uint64
	// AchievedEPS is the aggregate completion rate (Delivered / Horizon).
	AchievedEPS float64
	// E2E is the end-to-end latency distribution, merged across every
	// module of every pipeline, measured from the *scheduled* arrival
	// instant so queueing delay is charged to the system, not hidden by
	// a late generator (no coordinated omission).
	E2E metrics.Snapshot
	// GenLateness is how far behind schedule the generator itself fired —
	// the harness's own health check. It must stay tiny for the run to
	// count as open-loop.
	GenLateness metrics.Snapshot
	// Elapsed is wall time from first scheduled event through drain.
	Elapsed time.Duration
	// TunerActions is the tuner's journal for the run (empty without
	// Options.Tune) — what the adaptive runtime actually did.
	TunerActions []string
	// Tuning is the final actuator state of a tuned run, for carrying into
	// the next run of a sweep (zero-valued without Options.Tune).
	Tuning core.TuningSetpoints
}

// startLead is how far in the future the fleet's common start instant is
// placed, so offset-zero events are not already late at launch.
const startLead = 20 * time.Millisecond

// cycleLen is how many template frames each lane pre-renders; injection
// cycles through them so rendering cost never perturbs the schedule.
const cycleLen = 16

// lane is one pipeline's share of the fleet: its schedule and pre-rendered
// frames, plus its injection tallies.
type lane struct {
	pipe      *core.Pipeline
	cfg       core.PipelineConfig
	sched     Schedule
	templates []*frame.Frame
	admitted  uint64
	dropped   uint64
}

// Run executes one open-loop run of the scenario: build a fresh cluster,
// launch the fleet, inject every pipeline's schedule against a common
// start instant, drain, and merge the measurements.
func Run(sc experiments.FloodScenario, o Options) (Result, error) {
	o = o.withDefaults()
	reg, err := sc.Registry()
	if err != nil {
		return Result{}, fmt.Errorf("flood: registry: %w", err)
	}
	cluster, err := core.NewCluster(sc.Spec, reg)
	if err != nil {
		return Result{}, fmt.Errorf("flood: cluster: %w", err)
	}
	defer cluster.Close()

	lanes := make([]*lane, o.Pipelines)
	for i := range lanes {
		cfg := sc.Pipeline(fmt.Sprintf("flood%d", i), i)
		p, err := cluster.Launch(cfg, o.Planner)
		if err != nil {
			return Result{}, fmt.Errorf("flood: launch pipeline %d: %w", i, err)
		}
		p.PrimeCredits()
		sched, err := Generate(o.Process, o.Rate, o.Horizon, PipelineSeed(o.Seed, i))
		if err != nil {
			return Result{}, err
		}
		templates, err := renderCycle(cfg.Source)
		if err != nil {
			return Result{}, fmt.Errorf("flood: render templates for pipeline %d: %w", i, err)
		}
		lanes[i] = &lane{pipe: p, cfg: cfg, sched: sched, templates: templates}
	}
	defer func() {
		for _, ln := range lanes {
			for _, t := range ln.templates {
				t.Release()
			}
		}
	}()

	// The tuner runs alongside injection and is stopped (and read) after
	// drain, so late actions are journaled too.
	var tuner *core.Tuner
	if o.Tune {
		var tc core.TunerConfig
		if o.TuneConfig != nil {
			tc = *o.TuneConfig
		}
		if tc.Seed == 0 {
			tc.Seed = o.Seed
		}
		tuner = core.NewTuner(cluster, tc)
		tuneCtx, cancelTune := context.WithCancel(context.Background())
		defer cancelTune()
		if o.InitialTuning != nil {
			tuner.Prime(tuneCtx, *o.InitialTuning)
		}
		go tuner.Run(tuneCtx)
	}

	// Inject. Each lane walks its schedule against the shared start
	// instant; when the system backs up, Offer rejects instantly and the
	// lane stays on schedule — it never blocks or skips.
	lateness := &metrics.Histogram{}
	lateness.Seed(uint64(o.Seed))
	start := time.Now().Add(startLead)
	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for k, off := range ln.sched.Offsets {
				due := start.Add(off)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				f := ln.templates[k%len(ln.templates)].Clone()
				// Charge latency from the scheduled instant: a frame
				// that waited to be injected pays for the wait.
				f.Captured = due
				if ln.pipe.Offer(f) {
					ln.admitted++
				} else {
					ln.dropped++
				}
				if late := time.Since(due); late > 0 {
					lateness.Observe(late)
				} else {
					lateness.Observe(0)
				}
			}
		}(ln)
	}
	wg.Wait()

	res := Result{Pipelines: o.Pipelines}
	for _, ln := range lanes {
		res.Offered += len(ln.sched.Offsets)
		res.Admitted += ln.admitted
		res.DroppedSource += ln.dropped
	}

	// Drain: wait until every admitted frame completed, or the delivered
	// count stops moving, or the timeout lapses.
	mreg := cluster.Metrics()
	delivered := func() uint64 {
		var sum uint64
		for _, ln := range lanes {
			for _, mod := range ln.pipe.Modules() {
				key := ln.pipe.Name() + "." + mod
				sum += mreg.Meter("pipeline." + key + ".frames_done").Count()
			}
		}
		return sum
	}
	deadline := time.Now().Add(o.DrainTimeout)
	last, stableSince := delivered(), time.Now()
	for last < res.Admitted && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		cur := delivered()
		if cur != last {
			last, stableSince = cur, time.Now()
			continue
		}
		if time.Since(stableSince) > 500*time.Millisecond {
			break
		}
	}
	res.Delivered = delivered()
	res.Elapsed = time.Since(start)

	// Merge the per-module e2e histograms into one distribution. Each
	// module contributes its (unbiased) reservoir; re-observing through a
	// seeded histogram keeps the merge reproducible.
	merged := &metrics.Histogram{}
	merged.Seed(uint64(o.Seed) * 2654435761)
	for _, ln := range lanes {
		for _, mod := range ln.pipe.Modules() {
			key := ln.pipe.Name() + "." + mod
			for _, s := range mreg.Histogram("pipeline." + key + ".e2e").Samples() {
				merged.Observe(s)
			}
		}
	}
	res.E2E = merged.Snapshot()
	res.GenLateness = lateness.Snapshot()
	if tuner != nil {
		res.TunerActions = tuner.JournalStrings()
		res.Tuning = tuner.Setpoints()
	}
	res.OfferedEPS = float64(res.Offered) / o.Horizon.Seconds()
	res.AchievedEPS = float64(res.Delivered) / o.Horizon.Seconds()
	return res, nil
}

// renderCycle pre-renders the lane's template frames by sampling the
// pipeline's own renderer across one scene cycle. Injection clones a
// template per event, so per-event cost is one pooled copy regardless of
// scene complexity.
func renderCycle(sc core.SourceConfig) ([]*frame.Frame, error) {
	render, err := core.SourceRenderer(sc)
	if err != nil {
		return nil, err
	}
	// Sample across two seconds — one rep at the default 0.5 reps/sec —
	// so pose-bearing scenes show motion, not one frozen posture.
	const cycleSpan = 2 * time.Second
	frames := make([]*frame.Frame, 0, cycleLen)
	for k := 0; k < cycleLen; k++ {
		f, err := render(uint64(k), cycleSpan*time.Duration(k)/cycleLen)
		if err != nil {
			for _, t := range frames {
				t.Release()
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}
