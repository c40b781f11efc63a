package core

import (
	"strconv"
	"time"
)

// TunerConfig shapes the loop's tune phase. Every threshold is in ticks,
// not wall-clock, so decisions depend only on the observed sample sequence
// — the same discipline that keeps heal journals seed-comparable.
type TunerConfig struct {
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
	// Seed drives the jitter of the loop's tick. Jitter only shifts timing
	// — never which actions run or their order.
	Seed int64
}

func (c TunerConfig) withDefaults() TunerConfig {
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
// only latency that says whether it has room to grow or must shrink. A
// run-cumulative p99 never forgets a slow start-up frame. floor is the
// planner's launch window, the narrowest the tuner leaves a lane.
type pipeSample struct {
	name    string
	credits int
	floor   int
	avail   int
	drops   uint64
	e2eP99  time.Duration
}

// tunerSample is the tune phase's view of a tick's observation, in sorted
// (deterministic) order.
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

// tuneSvcState is the tune phase's per-pool hysteresis bookkeeping.
type tuneSvcState struct {
	// baseline is the deployed size first observed — the floor shrink
	// returns to.
	baseline      int
	hotSteps      int
	idleSteps     int
	cooldownUntil int
}

// tunePipeState is the tune phase's per-pipeline bookkeeping.
type tunePipeState struct {
	lastDrops     uint64
	cooldownUntil int
	replanned     bool
}

// Tuner is a loop whose one optional phase is tune: dynamic batching, pool
// scaling, credit-window resizing and measured-cost re-planning.
type Tuner = Loop

// NewTuner creates a tune-only loop for the cluster.
func NewTuner(c *Cluster, cfg TunerConfig) *Tuner { return NewLoop(c, LoopConfig{Tune: &cfg}) }

// decide turns one sample into actuations. It is a pure function of the
// sample and the tuner's tick-counter state: no clocks, no randomness —
// identical sample sequences always produce identical journals.
//
//vpvet:deterministic
func (l *Loop) decide(s tunerSample) []tunerAct {
	l.tick++
	var acts []tunerAct

	// poolsMoving: some pool is hot or settling after an actuation, so the
	// lanes' tail belongs to capacity still arriving, not to their windows.
	poolsMoving := false
	for _, sv := range s.services {
		st, ok := l.svc[sv.name]
		if !ok {
			st = &tuneSvcState{baseline: sv.size}
			l.svc[sv.name] = st
		}

		// Three saturation symptoms: a deep queue, excess wait eating an
		// eighth of the e2e budget, or every worker slot busy with
		// arrivals still waiting — the last fires long before the queue is
		// deep enough for the first, which matters when windows are short.
		saturated := sv.queue > l.tune.HighQueue*sv.size ||
			sv.waitP99 > l.tune.P99Target/8 ||
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
		if st.hotSteps > 0 || l.tick < st.cooldownUntil {
			poolsMoving = true
		}
		if l.tick < st.cooldownUntil {
			continue
		}

		ceiling := sv.maxInstances
		if ceiling <= 0 {
			ceiling = st.baseline
		}
		switch {
		case st.hotSteps >= l.tune.SaturatedAfter && sv.size < ceiling:
			// Scaling first: another instance cuts queueing without adding
			// a single microsecond to any request's path.
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionScalePool, Target: sv.name,
					From: strconv.Itoa(sv.size), To: strconv.Itoa(sv.size + 1)},
				n: sv.size + 1,
			})
			st.hotSteps = 0
			st.cooldownUntil = l.tick + l.tune.Cooldown
		case st.hotSteps >= l.tune.SaturatedAfter && sv.batch < batchCeiling(sv, l.tune.P99Target):
			// Instances maxed and still hot: amortize the serialized
			// section. Batching trades per-request hold time for
			// per-instance throughput, so it is the move of second resort,
			// and only up to the window whose worst-case hold still fits
			// the latency target (batchCeiling) — a batch that blows the
			// budget it defends is capacity nobody can use.
			best := batchCeiling(sv, l.tune.P99Target)
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionSetBatch, Target: sv.name,
					From: strconv.Itoa(sv.batch), To: strconv.Itoa(best)},
				n: best,
			})
			st.hotSteps = 0
			st.cooldownUntil = l.tick + l.tune.Cooldown
		case st.idleSteps >= l.tune.IdleAfter && sv.batch > 0:
			// Idle unwind, batching first: a lone request should not pay
			// the linger once load is gone.
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionSetBatch, Target: sv.name,
					From: strconv.Itoa(sv.batch), To: "0"},
				n: 0,
			})
			st.idleSteps = 0
			st.cooldownUntil = l.tick + l.tune.Cooldown
		case st.idleSteps >= l.tune.IdleAfter && sv.size > st.baseline:
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionScalePool, Target: sv.name,
					From: strconv.Itoa(sv.size), To: strconv.Itoa(sv.size - 1)},
				n: sv.size - 1,
			})
			st.idleSteps = 0
			st.cooldownUntil = l.tick + l.tune.Cooldown
		}
	}

	// A drop on any pipeline pressures the whole fleet: the lanes share
	// devices and services, so a burst that overran one lane's window is
	// about to overrun its neighbours' — widening only the lane that
	// already lost a frame would always be one burst too late.
	anyDrops := false
	for _, pp := range s.pipelines {
		st, ok := l.pipe[pp.name]
		if !ok {
			st = &tunePipeState{lastDrops: pp.drops}
			l.pipe[pp.name] = st
			// First sight: pre-existing drops are history, not news.
			continue
		}
		if pp.drops > st.lastDrops {
			anyDrops = true
		}
		st.lastDrops = pp.drops
	}
	for _, pp := range s.pipelines {
		st := l.pipe[pp.name]
		// Act on pressure, not just loss: an exhausted window (avail == 0)
		// means the very next burst arrival drops. Unlike the pool ladder
		// there is no hysteresis — the drop counter is monotone, so a
		// positive delta is confirmed lost work, not a sampling artifact.
		pressed := anyDrops || pp.avail == 0
		// Pressure re-checks placement once per lane, outside the actuator
		// cooldown: the re-score is a cheap pure decision against measured
		// service times and migrates only what diverged, so there is no
		// reason to queue it behind credit moves. It waits only for the
		// lane's first completed frame, so the measured costs exist.
		if pressed && l.tune.Replan && !st.replanned && pp.e2eP99 > 0 {
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionRebalanceModule, Target: pp.name},
			})
			st.replanned = true
		}
		if l.tick < st.cooldownUntil {
			continue
		}
		n := pp.credits
		switch {
		case pressed && pp.credits < l.tune.MaxCredits && 0 < pp.e2eP99 && pp.e2eP99 < l.tune.P99Target:
			// Additive increase: widen by one while the lane's own tail is
			// measured (an empty ring is no evidence) and inside the budget.
			// Every extra credit is another frame that may queue behind the
			// chain's slowest stage, so admission grows into the headroom one
			// frame per cooldown; the last widening's overshoot is the
			// decrease rule's to undo.
			n++
		case pp.e2eP99 > l.tune.P99Target && pp.credits > pp.floor && !poolsMoving:
			// Multiplicative decrease: halve, down to the planner's launch
			// window, once the window itself is what blows the budget. A
			// pool still scaling owns the tail first — scaling adds no
			// latency, shedding does.
			n = max(pp.credits/2, pp.floor)
		default:
			continue
		}
		acts = append(acts, tunerAct{
			act: Action{Kind: ActionResizeCredits, Target: pp.name,
				From: strconv.Itoa(pp.credits), To: strconv.Itoa(n)},
			n: n,
		})
		st.cooldownUntil = l.tick + l.tune.Cooldown
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
func (l *Loop) apply(a tunerAct) {
	switch a.act.Kind {
	case ActionSetBatch:
		pool, err := l.cluster.Pool(a.act.Target)
		if err != nil {
			return
		}
		pool.SetBatching(a.n, pool.Spec().BatchLinger)
		l.record(a.act)
	case ActionScalePool:
		pool, err := l.cluster.Pool(a.act.Target)
		if err != nil {
			return
		}
		grew := a.n > pool.Size()
		if err := pool.Scale(a.n); err != nil {
			return
		}
		l.record(a.act)
		// Every lane's tail was measured against the smaller pool.
		if grew {
			for _, p := range l.cluster.Pipelines() {
				p.forgetTail()
			}
		}
	case ActionResizeCredits:
		w, ok := l.lanes[a.act.Target]
		if !ok {
			return
		}
		p := w.p
		narrowed := a.n < p.Credits()
		if err := p.ResizeCredits(a.n); err != nil {
			return
		}
		l.record(a.act)
		// The narrowed lane's tail was measured against the wider window.
		if narrowed {
			p.forgetTail()
		}
	case ActionRebalanceModule:
		l.rebalance(a.act.Target)
	}
}

// rebalance re-scores a pipeline's placement using measured per-module
// handle time and live-migrates serviceless modules whose best device
// changed — the actuator of last resort, reached only once per pipeline
// and only after batching, scaling and credits are all exhausted.
func (l *Loop) rebalance(pipeline string) {
	w, ok := l.lanes[pipeline]
	if !ok {
		return
	}
	p := w.p
	// Each module's measured per-event handle time (ns) replaces its static
	// pipecost weight; a module not measured yet scores as free. The other
	// rules (pins, service co-location, source anchoring) are the ones the
	// cost-aware Plan applies, so only serviceless modules can move, and the
	// credit window is not the re-plan's to change.
	reg := l.cluster.Metrics()
	plan, err := costAwarePlace(&p.cfg, l.cluster, 0, func(mod string) int64 {
		//vpvet:allow metername re-reads the module handle histogram the device registered
		return int64(reg.Histogram("module." + p.prefixed(mod) + ".handle").Mean())
	}, measuredHopCost)
	if err != nil {
		return
	}
	moves, _ := p.relocate(plan.Placement, unpinnedServiceless)
	for _, mv := range moves {
		l.record(Action{Kind: ActionRebalanceModule, Target: pipeline + "." + mv.module,
			From: mv.from, To: mv.to})
	}
}
