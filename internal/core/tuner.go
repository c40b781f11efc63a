package core

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TunerConfig shapes the adaptive runtime tuner's control loop. Every
// threshold is in ticks (control-loop iterations), not wall-clock, so
// decisions depend only on the observed sample sequence — the same
// discipline that keeps supervisor journals seed-comparable.
type TunerConfig struct {
	// Interval is the control-loop period (Run); zero selects 100 ms.
	Interval time.Duration
	// P99Target is the end-to-end latency budget the tuner defends. A pool
	// whose excess-wait p99 exceeds an eighth of it counts as saturated
	// even with a shallow queue: pipelines chain several hops, so one
	// stage eating an eighth of the whole budget in queueing alone is
	// already a threat. Zero selects 250 ms.
	P99Target time.Duration
	// HighQueue is the per-instance queue depth that marks a pool
	// saturated; zero selects 2.
	HighQueue int
	// SaturatedAfter is how many consecutive saturated samples arm a
	// growth action (hysteresis); zero selects 2.
	SaturatedAfter int
	// IdleAfter is how many consecutive idle samples arm a shrink action;
	// zero selects 25 (idleness must be much staler news than saturation).
	IdleAfter int
	// Cooldown is the per-target tick count between actions, letting one
	// actuation take effect before the next is considered; zero selects 5.
	Cooldown int
	// MaxCredits caps per-pipeline credit-window growth; zero selects 16.
	MaxCredits int
	// Replan enables load-aware re-planning: when a pipeline still drops
	// frames with its credit window maxed, placements are re-scored with
	// measured module service times and divergent serviceless modules are
	// live-migrated. Off by default — migration is the heaviest actuator.
	Replan bool
	// Seed drives loop-interval jitter in Run. As with the supervisor,
	// jitter only shifts timing — never which actions run or their order.
	Seed int64
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.P99Target <= 0 {
		c.P99Target = 250 * time.Millisecond
	}
	if c.HighQueue <= 0 {
		c.HighQueue = 2
	}
	if c.SaturatedAfter <= 0 {
		c.SaturatedAfter = 2
	}
	if c.IdleAfter <= 0 {
		c.IdleAfter = 25
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5
	}
	if c.MaxCredits <= 0 {
		c.MaxCredits = 16
	}
	return c
}

// svcSample is one service pool's observed state at a tick.
type svcSample struct {
	name         string
	size         int
	workers      int
	queue        int
	busy         int
	batch        int
	maxBatch     int
	maxInstances int
	linger       time.Duration
	cost         time.Duration
	serial       float64
	waitP99      time.Duration
}

// pipeSample is one pipeline's observed state at a tick. e2eP99 is the tail
// of the lane's most recent completions (Pipeline.recentP99), zero before
// the first: the latency the window as it is now produces, which is the
// only latency that says whether it has room to grow. A run-cumulative p99
// never forgets a slow start-up frame.
type pipeSample struct {
	name    string
	credits int
	avail   int
	drops   uint64
	e2eP99  time.Duration
}

// tunerSample is one tick's full observation, in deterministic order.
type tunerSample struct {
	services  []svcSample
	pipelines []pipeSample
}

// tunerAct is one decided actuation: the journal entry plus the numeric
// setpoint apply needs.
type tunerAct struct {
	act Action
	n   int
}

// tuneSvcState is the tuner's per-pool hysteresis bookkeeping.
type tuneSvcState struct {
	// baseline is the deployed size first observed — the floor shrink
	// returns to.
	baseline      int
	hotSteps      int
	idleSteps     int
	cooldownUntil int
}

// tunePipeState is the tuner's per-pipeline bookkeeping.
type tunePipeState struct {
	lastDrops     uint64
	seen          bool
	cooldownUntil int
	replanned     bool
}

// Tuner is the adaptive runtime control loop (the perf-tuning sibling of
// the supervisor's self-healing loop): it samples per-pool queue depth,
// busy workers and wait latency plus per-pipeline source drops, and
// actuates dynamic batching, pool scaling, credit-window resizing and —
// when everything else is maxed — measured-cost re-planning. Decisions
// are pure functions of the sample stream and tick counters; the seed
// only jitters the loop's timing.
type Tuner struct {
	actionJournal

	cluster *Cluster
	cfg     TunerConfig
	rng     *rand.Rand

	mu   sync.Mutex
	tick int
	svc  map[string]*tuneSvcState
	pipe map[string]*tunePipeState
}

// NewTuner creates a tuner for the cluster. It does nothing until Run or
// Step.
func NewTuner(c *Cluster, cfg TunerConfig) *Tuner {
	cfg = cfg.withDefaults()
	return &Tuner{
		cluster: c,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		svc:     make(map[string]*tuneSvcState),
		pipe:    make(map[string]*tunePipeState),
	}
}

// Run drives the control loop until ctx is done. The seeded
// jitter (up to 10% of the interval per tick) shifts timing only.
func (t *Tuner) Run(ctx context.Context) {
	for {
		d := t.cfg.Interval
		t.mu.Lock()
		d += time.Duration(t.rng.Int63n(int64(t.cfg.Interval)/10 + 1))
		t.mu.Unlock()
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		t.Step(ctx)
	}
}

// Step runs one control-loop iteration: observe, decide, actuate.
func (t *Tuner) Step(ctx context.Context) {
	s := t.sample()
	for _, a := range t.decide(s) {
		t.apply(ctx, a)
	}
}

// sample observes every pool and pipeline, in sorted (deterministic)
// order.
func (t *Tuner) sample() tunerSample {
	var s tunerSample
	reg := t.cluster.Metrics()
	for _, name := range t.cluster.ServiceNames() {
		pool, err := t.cluster.Pool(name)
		if err != nil {
			continue
		}
		spec := pool.Spec()
		workers := spec.Workers
		if workers <= 0 {
			workers = 1
		}
		s.services = append(s.services, svcSample{
			name:         name,
			size:         pool.Size(),
			workers:      workers,
			queue:        pool.QueueDepth(),
			busy:         pool.BusyWorkers(),
			batch:        pool.BatchSize(),
			maxBatch:     spec.MaxBatch,
			maxInstances: spec.MaxInstances,
			linger:       spec.BatchLinger,
			cost:         spec.Cost,
			serial:       spec.SerialFraction,
			waitP99:      pool.WaitStats().P99,
		})
	}
	pipes := t.cluster.Pipelines()
	sort.Slice(pipes, func(i, j int) bool { return pipes[i].Name() < pipes[j].Name() })
	for _, p := range pipes {
		s.pipelines = append(s.pipelines, pipeSample{
			name:    p.Name(),
			credits: p.Credits(),
			avail:   p.CreditsAvail(),
			drops:   reg.Meter("pipeline." + p.Name() + ".source_drops").Count(),
			e2eP99:  p.recentP99(),
		})
	}
	return s
}

// decide turns one sample into actuations. It is a pure function of the
// sample and the tuner's tick-counter state: no clocks, no randomness —
// identical sample sequences always produce identical journals.
//
//vpvet:deterministic
func (t *Tuner) decide(s tunerSample) []tunerAct {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tick++
	var acts []tunerAct

	for _, sv := range s.services {
		st, ok := t.svc[sv.name]
		if !ok {
			st = &tuneSvcState{baseline: sv.size}
			t.svc[sv.name] = st
		}

		// Three saturation symptoms: a deep queue, excess wait eating an
		// eighth of the e2e budget, or every worker slot busy with
		// arrivals still waiting — the last fires long before the queue is
		// deep enough for the first, which matters when windows are short.
		saturated := sv.queue > t.cfg.HighQueue*sv.size ||
			sv.waitP99 > t.cfg.P99Target/8 ||
			(sv.busy >= sv.size*sv.workers && sv.queue > 0)
		idle := sv.queue == 0 && sv.busy == 0
		switch {
		case idle:
			// Instantaneous idleness overrides the sticky wait histogram:
			// scaling a pool with nothing in it helps nobody.
			st.idleSteps++
			st.hotSteps = 0
		case saturated:
			st.hotSteps++
			st.idleSteps = 0
		default:
			// Leaky, not reset: the queue and busy gauges are point
			// samples, and bursty saturation flickers between ticks.
			if st.hotSteps > 0 {
				st.hotSteps--
			}
			st.idleSteps = 0
		}
		if t.tick < st.cooldownUntil {
			continue
		}

		ceiling := sv.maxInstances
		if ceiling <= 0 {
			ceiling = st.baseline
		}
		switch {
		case st.hotSteps >= t.cfg.SaturatedAfter && sv.size < ceiling:
			// Scaling first: another instance cuts queueing without adding
			// a single microsecond to any request's path.
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionScalePool, Target: sv.name,
					From: strconv.Itoa(sv.size), To: strconv.Itoa(sv.size + 1)},
				n: sv.size + 1,
			})
			st.hotSteps = 0
			st.cooldownUntil = t.tick + t.cfg.Cooldown
		case st.hotSteps >= t.cfg.SaturatedAfter && sv.batch < batchCeiling(sv, t.cfg.P99Target):
			// Instances maxed and still hot: amortize the serialized
			// section. Batching trades per-request hold time for
			// per-instance throughput, so it is the move of second resort,
			// and only up to the window whose worst-case hold still fits
			// the latency target (batchCeiling) — a batch that blows the
			// budget it defends is capacity nobody can use.
			best := batchCeiling(sv, t.cfg.P99Target)
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionSetBatch, Target: sv.name,
					From: strconv.Itoa(sv.batch), To: strconv.Itoa(best)},
				n: best,
			})
			st.hotSteps = 0
			st.cooldownUntil = t.tick + t.cfg.Cooldown
		case st.idleSteps >= t.cfg.IdleAfter && sv.batch > 0:
			// Idle unwind, batching first: a lone request should not pay
			// the linger once load is gone.
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionSetBatch, Target: sv.name,
					From: strconv.Itoa(sv.batch), To: "0"},
				n: 0,
			})
			st.idleSteps = 0
			st.cooldownUntil = t.tick + t.cfg.Cooldown
		case st.idleSteps >= t.cfg.IdleAfter && sv.size > st.baseline:
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionScalePool, Target: sv.name,
					From: strconv.Itoa(sv.size), To: strconv.Itoa(sv.size - 1)},
				n: sv.size - 1,
			})
			st.idleSteps = 0
			st.cooldownUntil = t.tick + t.cfg.Cooldown
		}
	}

	// A drop on any pipeline pressures the whole fleet: the lanes share
	// devices and services, so a burst that overran one lane's window is
	// about to overrun its neighbours' — widening only the lane that
	// already lost a frame would always be one burst too late.
	anyDrops := false
	for _, pp := range s.pipelines {
		st, ok := t.pipe[pp.name]
		if !ok {
			st = &tunePipeState{seen: true, lastDrops: pp.drops}
			t.pipe[pp.name] = st
			// First sight: pre-existing drops are history, not news.
			continue
		}
		if pp.drops > st.lastDrops {
			anyDrops = true
		}
		st.lastDrops = pp.drops
	}
	for _, pp := range s.pipelines {
		st := t.pipe[pp.name]
		// Act on pressure, not just loss: an exhausted window (avail == 0)
		// means the very next burst arrival drops. Unlike the pool ladder
		// there is no hysteresis — the drop counter is monotone, so a
		// positive delta is confirmed lost work, not a sampling artifact.
		pressed := anyDrops || pp.avail == 0
		if !pressed {
			continue
		}
		// Pressure re-checks placement once per lane, outside the actuator
		// cooldown: the re-score is a cheap pure decision against measured
		// service times and migrates only what diverged, so there is no
		// reason to queue it behind credit moves. It waits only for the
		// lane's first completed frame, so the measured costs exist.
		if t.cfg.Replan && !st.replanned && pp.e2eP99 > 0 {
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionRebalanceModule, Target: pp.name},
			})
			st.replanned = true
		}
		if t.tick < st.cooldownUntil {
			continue
		}
		switch {
		case pp.credits < t.cfg.MaxCredits && pp.e2eP99 < t.cfg.P99Target*5/8:
			// Widen by one, and only while the lane's own tail still sits
			// well inside the budget. Every extra credit is another frame
			// that may queue behind the chain's slowest stage, so admission
			// grows additively into the measured headroom and freezes at
			// five eighths of the target: each widening takes effect a full
			// cooldown after the tail that justified it was measured, and
			// costs up to one more queued service call (~⅓ of the target
			// for the heavy vision stages) on the burst path. Guarding at
			// ¾ leaves the equilibrium tail — guard plus one widening's
			// overshoot — straddling the budget itself and the run's
			// compliance becomes a coin flip; ⅝ prices the overshoot in.
			// Past the guard, shedding at the source is the correct
			// defense, not a failure the tuner should fix.
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionResizeCredits, Target: pp.name,
					From: strconv.Itoa(pp.credits), To: strconv.Itoa(pp.credits + 1)},
				n: pp.credits + 1,
			})
			st.cooldownUntil = t.tick + t.cfg.Cooldown
		}
	}
	return acts
}

// batchCeiling is the largest batch window whose worst-case per-call hold
// still fits inside half the end-to-end latency target, or 0 when even a
// pair does not fit. A batch of n holds a worker for the serial section
// once plus n parallel shares, and a call can additionally wait out the
// full linger before the batch flushes:
//
//	hold(n) = linger + serial + n*(cost - serial)
//
// Half the budget is the allowance because the batched stage is one hop of
// a multi-hop chain that must also absorb transport and queueing. This is
// what keeps the tuner from batching an expensive stage (pose at 85 ms
// never batches under a 250 ms budget) while still batching cheap ones.
func batchCeiling(sv svcSample, target time.Duration) int {
	if sv.maxBatch < 2 || sv.cost <= 0 {
		return 0
	}
	serial := time.Duration(float64(sv.cost) * sv.serial)
	perFrame := sv.cost - serial
	allowance := target/2 - sv.linger - serial
	if perFrame <= 0 {
		// Fully serial cost: hold is independent of batch size, so any
		// window that fits, fits at the max.
		if allowance >= 0 {
			return sv.maxBatch
		}
		return 0
	}
	n := int(allowance / perFrame)
	if n > sv.maxBatch {
		n = sv.maxBatch
	}
	if n < 2 {
		return 0
	}
	return n
}

// apply executes one decided actuation and journals it.
func (t *Tuner) apply(ctx context.Context, a tunerAct) {
	switch a.act.Kind {
	case ActionSetBatch:
		pool, err := t.cluster.Pool(a.act.Target)
		if err != nil {
			return
		}
		pool.SetBatching(a.n, pool.Spec().BatchLinger)
		t.record(a.act)
	case ActionScalePool:
		pool, err := t.cluster.Pool(a.act.Target)
		if err != nil {
			return
		}
		if err := pool.Scale(ctx, a.n); err != nil {
			return
		}
		t.record(a.act)
	case ActionResizeCredits:
		p := t.pipelineByName(a.act.Target)
		if p == nil {
			return
		}
		if err := p.ResizeCredits(a.n); err != nil {
			return
		}
		t.record(a.act)
	case ActionRebalanceModule:
		t.rebalance(a.act.Target)
	}
}

// ServiceSetpoint is one pool's actuator state: instance count and batch
// window.
type ServiceSetpoint struct {
	Size  int
	Batch int
}

// TuningSetpoints is a snapshot of every actuator the tuner controls —
// pool sizes, batch windows, credit caps — detached from the cluster that
// produced it. A sweep carries it from rung to rung (flood.Sweep) so each
// rung starts from the configuration the previous rung learned, the way a
// long-lived deployment faces rising load: already tuned, not cold.
type TuningSetpoints struct {
	// Services maps service name to its pool setpoint.
	Services map[string]ServiceSetpoint
	// Pipelines maps pipeline name to its credit-window cap.
	Pipelines map[string]int
	// Placements maps pipeline name to its module placement (module →
	// device), so a re-planned layout survives into the next rung instead
	// of being re-learned mid-run every time.
	Placements map[string]map[string]string
}

// Setpoints snapshots the cluster's current actuator state.
func (t *Tuner) Setpoints() TuningSetpoints {
	sp := TuningSetpoints{
		Services:  make(map[string]ServiceSetpoint),
		Pipelines: make(map[string]int),
	}
	for _, name := range t.cluster.ServiceNames() {
		pool, err := t.cluster.Pool(name)
		if err != nil {
			continue
		}
		sp.Services[name] = ServiceSetpoint{Size: pool.Size(), Batch: pool.BatchSize()}
	}
	for _, p := range t.cluster.Pipelines() {
		sp.Pipelines[p.Name()] = p.Credits()
	}
	sp.Placements = make(map[string]map[string]string)
	for _, p := range t.cluster.Pipelines() {
		sp.Placements[p.Name()] = p.Placement()
	}
	return sp
}

// Prime applies carried-over setpoints to a fresh cluster before load
// arrives: pools grow to (never shrink below) their learned size, batch
// windows and credit caps are restored. Prime is initial configuration,
// not a decision, so nothing is journaled.
func (t *Tuner) Prime(ctx context.Context, sp TuningSetpoints) {
	names := make([]string, 0, len(sp.Services))
	for name := range sp.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := sp.Services[name]
		pool, err := t.cluster.Pool(name)
		if err != nil {
			continue
		}
		if s.Size > pool.Size() {
			_ = pool.Scale(ctx, s.Size)
		}
		if s.Batch != pool.BatchSize() {
			pool.SetBatching(s.Batch, pool.Spec().BatchLinger)
		}
	}
	pipes := make([]string, 0, len(sp.Pipelines))
	for name := range sp.Pipelines {
		pipes = append(pipes, name)
	}
	sort.Strings(pipes)
	for _, name := range pipes {
		credits := sp.Pipelines[name]
		if p := t.pipelineByName(name); p != nil && credits > p.Credits() {
			_ = p.ResizeCredits(credits)
		}
	}
	placed := make([]string, 0, len(sp.Placements))
	for name := range sp.Placements {
		placed = append(placed, name)
	}
	sort.Strings(placed)
	for _, name := range placed {
		p := t.pipelineByName(name)
		if p == nil {
			continue
		}
		want := sp.Placements[name]
		current := p.Placement()
		for _, mod := range p.Modules() {
			mc, ok := p.cfg.Module(mod)
			if !ok || mc.Device != "" || len(mc.Services) > 0 {
				// Same rule as rebalance: pins and service co-location are
				// plan invariants, never carried state.
				continue
			}
			if tgt := want[mod]; tgt != "" && tgt != current[mod] {
				_ = p.MigrateModule(mod, tgt)
			}
		}
	}
}

// pipelineByName finds a live pipeline.
func (t *Tuner) pipelineByName(name string) *Pipeline {
	for _, p := range t.cluster.Pipelines() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// rebalance re-scores a pipeline's placement using measured per-module
// handle time and live-migrates serviceless modules whose best device
// changed — the actuator of last resort, reached only once per pipeline
// and only after batching, scaling and credits are all exhausted.
func (t *Tuner) rebalance(pipeline string) {
	p := t.pipelineByName(pipeline)
	if p == nil {
		return
	}
	planner, ok := p.plannerImpl.(CostAwarePlanner)
	if !ok {
		planner = CostAwarePlanner{}
	}
	planner.HopPenalty = 0 // re-derive for the measured domain

	reg := t.cluster.Metrics()
	measured := make(map[string]int64, len(p.cfg.Modules))
	for _, mod := range p.Modules() {
		//vpvet:allow metername re-reads the module handle histogram the device registered
		if h := reg.Histogram("module." + p.prefixed(mod) + ".handle"); h.Count() > 0 {
			measured[mod] = int64(h.Mean())
		}
	}

	plan, err := planner.PlanMeasured(&p.cfg, t.cluster, measured)
	if err != nil {
		return
	}
	current := p.Placement()
	for _, mod := range p.Modules() {
		mc, ok := p.cfg.Module(mod)
		if !ok || mc.Device != "" || len(mc.Services) > 0 {
			// Pins and service co-location never move: those rules are
			// identical in both scoring domains.
			continue
		}
		target := plan.Placement[mod]
		if target == "" || target == current[mod] {
			continue
		}
		if err := p.MigrateModule(mod, target); err != nil {
			continue
		}
		t.record(Action{Kind: ActionRebalanceModule, Target: pipeline + "." + mod,
			From: current[mod], To: target})
	}
}
