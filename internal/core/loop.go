package core

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"videopipe/internal/metrics"
	"videopipe/internal/wire"
)

// tickInterval is the loop's tick. Each tick adds up to 10% jitter seeded
// by TunerConfig.Seed (0 without a tune phase). The loop counts every
// threshold given in time in whole ticks, rounded up (ticks).
const tickInterval = 100 * time.Millisecond

// LoopConfig selects and shapes a cluster's control loop. The sample phase
// always runs; Heal or a non-nil Tune adds that phase. StallAfter and
// Tune's P99Target are the loop's only thresholds a caller sets, because
// callers need different values; every other one is a constant.
type LoopConfig struct {
	// StallAfter is how long a running pipeline, or one of its modules, may
	// go without progress before the sample phase flags it stalled; zero
	// selects 2 s.
	StallAfter time.Duration
	// Heal runs the self-healing phase (heal.go).
	Heal bool
	// Tune, when set, runs the adaptive tuning phase (tuner.go).
	Tune *TunerConfig
}

// Loop is a cluster's one control loop — the paper's §7 "automatic
// deployment, scheduling and monitoring" future work. Each tick runs fixed
// phases in order: sample (pipeline progress, stalls, module errors, pool
// and lane state, degraded time), then heal (device probes, service and
// module restarts, failover), then tune (pool scaling, credit windows).
// Heal and tune append to one action journal, and the phase an action came
// from is its Kind.
type Loop struct {
	cluster    *Cluster
	stallAfter time.Duration
	rng        *rand.Rand
	// heal says whether the heal phase runs; tune is the tune phase's
	// settings, defaults filled in, nil when the phase is off.
	heal bool
	tune *TunerConfig

	// The phases' state below belongs to the goroutine running the loop.
	// Sample: one watch per pipeline, the restart meter per service, the
	// tune view it fills, and the sorted service names and pipelines it
	// refills each tick.
	lanes    map[string]*watch
	restarts map[string]*metrics.Meter
	obs      tunerSample
	svcNames []string
	pipes    []*Pipeline
	// Heal: probes run from a dedicated network vantage point, so a
	// device-pair partition (a crashed host dropping off the LAN) never
	// blinds the loop itself.
	probeNet wire.Transport
	probes   map[string]*probe
	svcHeal  map[string]*svcState
	modHeal  map[string]*restartBudget
	// Tune: tick counts the tune phase's ticks, which its cooldowns read.
	tick int
	svc  map[string]*tuneSvcState
	pipe map[string]*tunePipeState

	// mu guards what other goroutines read: the last report, the lanes'
	// degraded time and the journal.
	mu      sync.Mutex
	rep     Report
	journal []Action
}

// NewLoop creates the control loop for a cluster. It does nothing until
// Run.
func NewLoop(c *Cluster, cfg LoopConfig) *Loop {
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = 2 * time.Second
	}
	l := &Loop{
		cluster:    c,
		stallAfter: cfg.StallAfter,
		heal:       cfg.Heal,
		lanes:      make(map[string]*watch),
		restarts:   make(map[string]*metrics.Meter),
		probes:     make(map[string]*probe),
		svcHeal:    make(map[string]*svcState),
		modHeal:    make(map[string]*restartBudget),
		svc:        make(map[string]*tuneSvcState),
		pipe:       make(map[string]*tunePipeState),
	}
	var seed int64
	if cfg.Tune != nil {
		t := cfg.Tune.withDefaults()
		l.tune, seed = &t, t.Seed
	}
	l.rng = rand.New(rand.NewSource(seed))
	if cfg.Heal {
		l.probeNet = c.Network().Host("@supervisor")
	}
	return l
}

// Run ticks until ctx is done, handing each tick's report to every sink
// given, then joins the probes still in flight and releases their
// connections. Callers typically run it in a goroutine and cancel before
// tearing the cluster down. The seeded jitter shifts timing only — never
// which actions run or their order.
func (l *Loop) Run(ctx context.Context, sinks ...func(Report)) {
	defer l.stopProbes()
	interval := func() time.Duration { return tickInterval + time.Duration(l.rng.Int63n(int64(tickInterval)/10+1)) }
	timer := time.NewTimer(interval())
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		l.step(ctx)
		for _, sink := range sinks {
			sink(l.Report())
		}
		timer.Reset(interval())
	}
}

// step is one tick: sample, then heal, then tune.
func (l *Loop) step(ctx context.Context) {
	s := l.sample()
	if l.heal {
		l.probeDevices(ctx)
		l.checkServices()
		l.checkModules()
	}
	if l.tune != nil {
		for _, a := range l.decide(s) {
			l.apply(a)
		}
	}
}

// ticks counts a threshold given in time as whole ticks, rounding up: 1.35 s
// at the 100 ms tick is 14.
func ticks(d time.Duration) int { return int((d + tickInterval - 1) / tickInterval) }

func (l *Loop) record(a Action) {
	l.mu.Lock()
	l.journal = append(l.journal, a)
	l.mu.Unlock()
}

// Journal returns the actions taken so far, in order.
func (l *Loop) Journal() []Action {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Action(nil), l.journal...)
}

// JournalStrings renders the journal, for logs and assertions.
func (l *Loop) JournalStrings() []string {
	acts := l.Journal()
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.String()
	}
	return out
}
