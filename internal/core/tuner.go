package core

import (
	"strconv"
	"time"
)

// TunerConfig shapes the loop's tune phase.
type TunerConfig struct {
	// P99Target is the end-to-end latency budget the tuner defends. A pool
	// whose recent excess-wait p99 (Pool.RecentWaitP99) exceeds an eighth
	// of it counts as saturated even with a shallow queue: pipelines chain
	// several hops, so one stage eating an eighth of the whole budget in
	// queueing alone is already a threat. Zero selects 250 ms.
	P99Target time.Duration
	// Seed drives the jitter of the loop's tick. Jitter only shifts timing
	// — never which actions run or their order.
	Seed int64
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.P99Target <= 0 {
		c.P99Target = 250 * time.Millisecond
	}
	return c
}

// The tune phase's thresholds are counts of ticks, not wall-clock, so
// decisions depend only on the observed sample sequence — the same
// discipline that keeps heal journals seed-comparable.
const (
	// highQueue is the per-instance queue depth that marks a pool
	// saturated.
	highQueue = 2
	// saturatedAfter is how many consecutive saturated samples arm a
	// growth action (hysteresis).
	saturatedAfter = 2
	// idleAfter is how many consecutive idle samples arm a shrink action:
	// idleness must be much staler news than saturation.
	idleAfter = 25
	// cooldown is the per-target tick count between actions, letting one
	// actuation take effect before the next is considered.
	cooldown = 5
	// maxCredits caps per-pipeline credit-window growth.
	maxCredits = 16
)

// svcSample is one service pool's observed state at a tick. waitP99 is the
// tail of the pool's most recent waits (Pool.RecentWaitP99).
type svcSample struct {
	name         string
	size         int
	workers      int
	queue        int
	busy         int
	maxInstances int
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
}

// Tuner is a loop whose one optional phase is tune: pool scaling and
// credit-window resizing.
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
		saturated := sv.queue > highQueue*sv.size ||
			sv.waitP99 > l.tune.P99Target/8 ||
			(sv.busy >= sv.size*sv.workers && sv.queue > 0)
		idle := sv.queue == 0 && sv.busy == 0
		switch {
		case idle:
			// Instantaneous idleness overrides the recent waits, which keep
			// the last burst's until new requests arrive: scaling a pool
			// with nothing in it helps nobody.
			st.idleSteps++
			st.hotSteps = 0
		case saturated:
			st.hotSteps++
			st.idleSteps = 0
		default:
			// Leaky, not reset: the queue depth and busy workers are
			// point samples, and bursty saturation flickers between ticks.
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
		case st.hotSteps >= saturatedAfter && sv.size < ceiling:
			// Scale out: another instance cuts queueing without adding a
			// single microsecond to any request's path.
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionScalePool, Target: sv.name,
					From: strconv.Itoa(sv.size), To: strconv.Itoa(sv.size + 1)},
				n: sv.size + 1,
			})
			st.hotSteps = 0
			st.cooldownUntil = l.tick + cooldown
		case st.idleSteps >= idleAfter && sv.size > st.baseline:
			acts = append(acts, tunerAct{
				act: Action{Kind: ActionScalePool, Target: sv.name,
					From: strconv.Itoa(sv.size), To: strconv.Itoa(sv.size - 1)},
				n: sv.size - 1,
			})
			st.idleSteps = 0
			st.cooldownUntil = l.tick + cooldown
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
		if l.tick < st.cooldownUntil {
			continue
		}
		// Act on pressure, not just loss: an exhausted window (avail == 0)
		// means the very next burst arrival drops. Unlike the pool ladder
		// there is no hysteresis — the drop counter is monotone, so a
		// positive delta is confirmed lost work, not a sampling artifact.
		pressed := anyDrops || pp.avail == 0
		n := pp.credits
		switch {
		case pressed && pp.credits < maxCredits && 0 < pp.e2eP99 && pp.e2eP99 < l.tune.P99Target:
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
		st.cooldownUntil = l.tick + cooldown
	}
	return acts
}

// apply executes one decided actuation and journals it.
func (l *Loop) apply(a tunerAct) {
	switch a.act.Kind {
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
			for _, p := range l.pipes {
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
	}
}
