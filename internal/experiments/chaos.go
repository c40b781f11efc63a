package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/chaos"
	"videopipe/internal/core"
	"videopipe/internal/services"
)

// ---- Resilience experiment: deterministic fault injection ----

// chaosSourceFPS is the source rate of every chaos scenario's pipelines.
const chaosSourceFPS = 15

// ChaosScenario is one resilience case: a pipeline workload plus a fault
// schedule, either literal or generated from the experiment seed.
type ChaosScenario struct {
	// Name labels the scenario in the results table.
	Name string
	// Schedule is the literal fault plan; nil generates one from Gen.
	Schedule chaos.Schedule
	// Gen derives the schedule from the experiment seed when Schedule is
	// nil.
	Gen *chaos.GenOptions
	// Shared also runs the gesture pipeline concurrently, so faults land
	// on a service pool two pipelines share (§5.2.2 under failure).
	Shared bool
	// Limits overrides the fitness pipeline's sandbox budgets, so
	// module-sabotage scenarios can pick limits low enough that breaches
	// trip on instruction counts (deterministic) rather than wall clock.
	Limits *core.LimitsConfig
	// Remote launches every pipeline on the paper's baseline plan
	// (BaselineClusterSpec, BaselinePlanner): each module stays on the
	// phone and every service call crosses the network to the desktop.
	// Otherwise the home cluster and CoLocatePlanner place modules beside
	// the services they call.
	Remote bool
}

// schedule resolves the scenario's fault plan for a seed.
func (sc ChaosScenario) schedule(seed int64) chaos.Schedule {
	if sc.Schedule != nil {
		return sc.Schedule.Sorted()
	}
	if sc.Gen != nil {
		return chaos.Generate(seed, *sc.Gen)
	}
	return nil
}

// DefaultChaosScenarios are the paper-testbed failure stories: flaky home
// Wi-Fi between the phone and the desktop, the desktop rebooting mid-run,
// and the shared pose pool dying under two-pipeline load. The Wi-Fi and
// reboot stories run twice, co-located and on the remote plan, whose every
// service call crosses the faulted link to the faulted desktop.
func DefaultChaosScenarios() []ChaosScenario {
	flakyWifi := &chaos.GenOptions{
		Horizon:     1200 * time.Millisecond,
		Events:      3,
		Links:       []string{chaos.LinkTarget("phone", "desktop")},
		MinDuration: 200 * time.Millisecond,
		MaxDuration: 600 * time.Millisecond,
	}
	desktopReboot := chaos.Schedule{
		{At: 400 * time.Millisecond, Kind: chaos.KindPauseDevice, Target: "desktop", Duration: 800 * time.Millisecond},
	}
	return []ChaosScenario{
		{Name: "flaky_wifi", Gen: flakyWifi},
		{Name: "flaky_wifi_remote", Gen: flakyWifi, Remote: true},
		{Name: "desktop_reboot", Schedule: desktopReboot},
		{Name: "desktop_reboot_remote", Schedule: desktopReboot, Remote: true},
		{
			Name:   "pose_pool_kill",
			Shared: true,
			Schedule: chaos.Schedule{
				{At: 400 * time.Millisecond, Kind: chaos.KindKillService, Target: services.PoseDetector, Duration: time.Second},
			},
		},
	}
}

// SupervisedChaosScenarios are the supervised resilience stories: the
// default five plus faults only the supervisor can recover from — a
// permanent TV crash (re-plan the display service, live-migrate the
// display module) and two module-sabotage cases where hostile code is
// hot-swapped into a live module and the sandbox must breach, kill, and
// restart it from its original source. The sabotage scenarios run shared
// so the co-located gesture pipeline's rate during the fault measures
// containment.
func SupervisedChaosScenarios() []ChaosScenario {
	sandboxLimits := &core.LimitsConfig{Instructions: 50_000}
	return append(DefaultChaosScenarios(),
		ChaosScenario{
			Name: "device_crash",
			Schedule: chaos.Schedule{
				{At: 400 * time.Millisecond, Kind: chaos.KindDeviceCrash, Target: "tv", Duration: 600 * time.Millisecond},
			},
		},
		ChaosScenario{
			Name:   "runaway_module",
			Shared: true,
			Limits: sandboxLimits,
			Schedule: chaos.Schedule{
				{At: 400 * time.Millisecond, Kind: chaos.KindRunawayModule,
					Target: chaos.ModuleTarget("chaos_runaway_module", "rep_counter"), Duration: 600 * time.Millisecond},
			},
		},
		ChaosScenario{
			Name:   "hog_module",
			Shared: true,
			Limits: sandboxLimits,
			Schedule: chaos.Schedule{
				{At: 400 * time.Millisecond, Kind: chaos.KindHogModule,
					Target: chaos.ModuleTarget("chaos_hog_module", "activity_recognition"), Duration: 600 * time.Millisecond},
			},
		},
	)
}

// ChaosRow is one scenario's outcome.
type ChaosRow struct {
	Scenario string
	// Fingerprint is the canonical schedule text; identical across runs
	// with the same seed.
	Fingerprint string
	// Applied is the injector's log, in injection order.
	Applied []chaos.Applied
	// PreFPS and PostFPS are delivered rates in clean windows before and
	// after the fault run; recovery demands Post >= ~0.9 Pre.
	PreFPS  float64
	PostFPS float64
	// DuringFPS is the delivered rate across the fault window.
	DuringFPS float64
	// CoPreFPS and CoDuringFPS are the co-located gesture pipeline's
	// delivered rates in the pre-fault and fault windows (shared runs
	// only). Module-sabotage scenarios demand CoDuring >= ~0.9 CoPre: a
	// runaway module must not starve its neighbours while it is being
	// contained.
	CoPreFPS    float64
	CoDuringFPS float64
	// Recovery is how long after the last fault reversed the pipeline
	// took to sustain >= 90% of PreFPS; negative means it never did
	// within the observation window.
	Recovery time.Duration
	// DegradedSeconds is the loop-observed degraded time during the fault
	// run.
	DegradedSeconds float64
	// Journal is the loop's heal-phase action log (supervised runs only);
	// seed-deterministic across same-seed runs.
	Journal []string
}

// Chaos runs every scenario: a clean pre-fault window, a fault window
// driven by the seeded injector, and a clean post-fault window, measuring
// recovery rate and time. The same seed replays the identical fault
// sequence.
func Chaos(o Options, seed int64, scenarios []ChaosScenario) ([]ChaosRow, error) {
	reg, err := o.registry()
	if err != nil {
		return nil, err
	}
	if scenarios == nil {
		scenarios = DefaultChaosScenarios()
	}
	rows := make([]ChaosRow, 0, len(scenarios))
	for _, sc := range scenarios {
		row, err := runChaosScenario(reg, sc, seed, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos %s: %w", sc.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runChaosScenario(reg *services.Registry, sc ChaosScenario, seed int64, o Options) (ChaosRow, error) {
	spec, planner := apps.HomeClusterSpec(), core.Planner(core.CoLocatePlanner{})
	if sc.Remote {
		spec, planner = apps.BaselineClusterSpec(), core.BaselinePlanner{}
	}
	cluster, err := core.NewCluster(spec, reg)
	if err != nil {
		return ChaosRow{}, err
	}
	defer cluster.Close()

	name := "chaos_" + sc.Name
	fitCfg := apps.FitnessConfig(name, chaosSourceFPS, o.scene())
	if sc.Limits != nil {
		fitCfg.Limits = *sc.Limits
	}
	fit, err := cluster.Launch(fitCfg, planner)
	if err != nil {
		return ChaosRow{}, err
	}
	var gest *core.Pipeline
	if sc.Shared {
		if gest, err = cluster.Launch(apps.GestureConfig(name+"_gest", chaosSourceFPS, "clap"), planner); err != nil {
			return ChaosRow{}, err
		}
	}

	// One control loop spans every window, supervised or not: each tick
	// samples the cluster — the fitness sink's delivered count feeds the
	// recovery clock, stalls feed degraded time — and, under Supervise,
	// heals. It must stop (blocking until it fully exits) before the
	// deferred cluster.Close — an in-flight tick may still be probing or
	// migrating.
	loop := core.NewLoop(cluster, core.LoopConfig{StallAfter: 500 * time.Millisecond, Heal: o.Supervise})
	// samples is the loop goroutine's until the loop has stopped.
	var samples []deliverySample
	loopCtx, loopCancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		loop.Run(loopCtx, func(r core.Report) {
			for _, p := range r.Pipelines {
				if p.Pipeline == name {
					samples = append(samples, deliverySample{at: r.At, count: p.Delivered})
				}
			}
		})
	}()
	var stopOnce sync.Once
	stopLoop := func() {
		stopOnce.Do(func() {
			loopCancel()
			<-loopDone
		})
	}
	defer stopLoop()

	// rate is one Run's delivered count over its window. Both pipelines
	// are chains with one sink, so the count is that sink's. Dividing by
	// the fixed window rather than the first-to-last-mark span (Meter.Rate)
	// keeps the low frame counts of short windows from swinging with
	// delivery clustering, so phases compare like-for-like.
	rate := func(r core.RunResult) float64 {
		if r.Duration <= 0 {
			return 0
		}
		return float64(r.Delivered) / r.Duration.Seconds()
	}
	// run executes one measurement window across the launched pipelines
	// and returns the fitness and gesture pipelines' delivered rates.
	run := func(dur time.Duration) (float64, float64, error) {
		cluster.Metrics().Reset()
		var wg sync.WaitGroup
		var fitRes, gestRes core.RunResult
		var fitErr, gestErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			fitRes, fitErr = fit.Run(context.Background(), dur)
		}()
		if gest != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gestRes, gestErr = gest.Run(context.Background(), dur)
			}()
		}
		wg.Wait()
		if fitErr != nil {
			return 0, 0, fitErr
		}
		if gestErr != nil {
			return 0, 0, gestErr
		}
		return rate(fitRes), rate(gestRes), nil
	}

	row := ChaosRow{Scenario: sc.Name}
	schedule := sc.schedule(seed)
	row.Fingerprint = schedule.Fingerprint()

	// Warm-up: the first run after launch spends part of its window on
	// connection setup before frames flow, skewing whatever rate it
	// reports — so reach steady state before the pre-fault baseline is
	// measured.
	warm := o.duration() / 2
	if warm < 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	if _, _, err := run(warm); err != nil {
		return ChaosRow{}, err
	}

	// Phase 1: clean pre-fault window.
	if row.PreFPS, row.CoPreFPS, err = run(o.duration()); err != nil {
		return ChaosRow{}, err
	}

	// Phase 2: fault window. The injector drives the schedule while the
	// pipelines run; the loop's samples time the recovery from the moment
	// the last fault reverses.
	var faultEnd time.Duration
	for _, ev := range schedule {
		if end := ev.At + ev.Duration; end > faultEnd {
			faultEnd = end
		}
	}
	chaosDur := faultEnd + o.duration()

	var healedAt time.Time
	injCtx, injCancel := context.WithCancel(context.Background())
	injDone := make(chan struct{})
	inj := chaos.NewInjector(cluster)
	inj.ExternalRepair = o.Supervise
	go func() {
		defer close(injDone)
		inj.Run(injCtx, schedule)
		healedAt = time.Now()
	}()
	stopInjector := func() {
		injCancel()
		<-injDone
	}

	degradedBefore := loop.DegradedSeconds(name)
	row.DuringFPS, row.CoDuringFPS, err = run(chaosDur)
	if err != nil {
		stopInjector()
		return ChaosRow{}, err
	}
	row.Applied = inj.Applied()
	row.DegradedSeconds = loop.DegradedSeconds(name) - degradedBefore

	// Phase 3: clean post-fault window. The loop keeps sampling so the
	// recovery clock can land here when the pipeline was still draining
	// at the end of the fault window.
	row.PostFPS, _, err = run(o.duration())
	stopInjector()
	if err != nil {
		return ChaosRow{}, err
	}
	// Stop the loop before reading its samples and journal so nothing
	// lands after collection.
	stopLoop()
	row.Recovery = recoveryTime(samples, healedAt, row.PreFPS)
	if o.Supervise {
		row.Journal = loop.JournalStrings()
	}
	return row, nil
}

// deliverySample is one timestamped reading of a sink's delivered
// counter.
type deliverySample struct {
	at    time.Time
	count uint64
}

// recoveryTime finds how long after healedAt the sampled delivered
// counter first sustained >= 90% of preFPS over a trailing window. It
// returns a negative duration when the rate never recovered in-sample.
func recoveryTime(samples []deliverySample, healedAt time.Time, preFPS float64) time.Duration {
	const window = 500 * time.Millisecond
	target := 0.9 * preFPS
	if healedAt.IsZero() || preFPS <= 0 {
		return -1
	}
	for i := range samples {
		if samples[i].at.Before(healedAt) {
			continue
		}
		// Find the sample a window earlier.
		j := i
		for j > 0 && samples[i].at.Sub(samples[j-1].at) <= window {
			j--
		}
		span := samples[i].at.Sub(samples[j].at).Seconds()
		if span <= 0 || samples[i].count < samples[j].count {
			continue
		}
		rate := float64(samples[i].count-samples[j].count) / span
		if rate >= target {
			d := samples[i].at.Sub(healedAt)
			if d < 0 {
				d = 0
			}
			return d
		}
	}
	return -1
}

// FormatChaos renders scenario rows as the recovery-time table.
func FormatChaos(rows []ChaosRow, seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos resilience (seed %d)\n", seed)
	fmt.Fprintf(&b, "%-22s %8s %8s %8s %10s %10s %7s\n",
		"Scenario", "Pre FPS", "During", "Post", "Recovery", "Degraded", "Faults")
	for _, r := range rows {
		rec := "never"
		if r.Recovery >= 0 {
			rec = r.Recovery.Round(10 * time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-22s %8.2f %8.2f %8.2f %10s %9.1fs %7d\n",
			r.Scenario, r.PreFPS, r.DuringFPS, r.PostFPS, rec, r.DegradedSeconds, len(r.Applied))
		if r.CoPreFPS > 0 {
			fmt.Fprintf(&b, "  co-located: pre %.2f fps, during fault %.2f\n", r.CoPreFPS, r.CoDuringFPS)
		}
		for _, act := range r.Journal {
			fmt.Fprintf(&b, "  heal: %s\n", act)
		}
	}
	return b.String()
}
