package core

import (
	"fmt"
	"slices"
)

// ActionKind classifies one control-loop action; the kind also says which
// phase took it (heal or tune).
type ActionKind int

// Action kinds. Enums start at one.
const (
	// ActionRestartService restored a dead or error-bursting pool (heal).
	ActionRestartService ActionKind = iota + 1
	// ActionDeviceDead declared a device dead after missed probes (heal).
	ActionDeviceDead
	// ActionRedeployService moved a dead device's pool elsewhere (heal).
	ActionRedeployService
	// ActionMigrateModule live-migrated a module off a dead device (heal).
	ActionMigrateModule
	// ActionScalePool resized a service pool's instance count (tune).
	ActionScalePool
	// ActionResizeCredits changed a pipeline's credit window (tune).
	ActionResizeCredits
	// ActionRestartModule replaced a module its sandbox killed after
	// repeated resource-budget breaches (heal).
	ActionRestartModule
)

// Action is one journal entry: what the loop did and to what. It
// deliberately carries no timestamps — journals are compared across runs
// of the same seed, and wall-clock would break that.
type Action struct {
	Kind   ActionKind
	Target string
	From   string
	To     string
}

// String renders the action for journals and logs.
//
//vpvet:deterministic
func (a Action) String() string {
	switch a.Kind {
	case ActionRestartService:
		return "restart_service " + a.Target
	case ActionDeviceDead:
		return "device_dead " + a.Target
	case ActionRedeployService:
		return fmt.Sprintf("redeploy_service %s %s->%s", a.Target, a.From, a.To)
	case ActionMigrateModule:
		return fmt.Sprintf("migrate_module %s %s->%s", a.Target, a.From, a.To)
	case ActionScalePool:
		return fmt.Sprintf("scale_pool %s %s->%s", a.Target, a.From, a.To)
	case ActionResizeCredits:
		return fmt.Sprintf("resize_credits %s %s->%s", a.Target, a.From, a.To)
	case ActionRestartModule:
		return "restart_module " + a.Target
	default:
		return fmt.Sprintf("action(%d) %s", int(a.Kind), a.Target)
	}
}

// declareDead runs the full failover sequence for a device that missed
// too many probes: mark it down (planners stop seeing it), move its
// service pools to surviving container-capable devices, then re-plan
// every pipeline and live-migrate the orphaned modules. The action
// journal it appends to is compared across same-seed runs.
//
//vpvet:deterministic
func (l *Loop) declareDead(name string) {
	l.cluster.MarkDown(name)
	l.record(Action{Kind: ActionDeviceDead, Target: name})

	// Move every pool the dead device hosted. Services iterate sorted
	// (ServiceNames) and the target is the first surviving
	// container-capable device in configuration order, so the journal is
	// identical run to run.
	target := ""
	for _, dev := range l.cluster.DeviceNames() {
		if d, _ := l.cluster.Device(dev); d.ContainerCapable() {
			target = dev
			break
		}
	}
	for _, svc := range l.cluster.ServiceNames() {
		if host, ok := l.cluster.ServiceHost(svc); !ok || host != name || target == "" {
			continue
		}
		desired := 1
		if st, ok := l.svcHeal[svc]; ok && st.desired > 0 {
			desired = st.desired
		}
		if err := l.cluster.RedeployService(svc, target, desired); err != nil {
			continue
		}
		l.record(Action{Kind: ActionRedeployService, Target: svc, From: name, To: target})
	}

	// Re-plan and migrate. Launch order of pipelines is stable, and
	// FailOver migrates orphans in sorted order.
	for _, p := range l.cluster.Pipelines() {
		migrated, _ := p.FailOver(name)
		placement := p.Placement()
		for _, mod := range migrated {
			l.record(Action{
				Kind:   ActionMigrateModule,
				Target: p.Name() + "." + mod,
				From:   name,
				To:     placement[mod],
			})
		}
	}
}

// checkModules restarts modules whose sandbox killed them after repeated
// budget breaches, under the same backoff/budget discipline as service
// restarts. Pipelines iterate in launch order and killed modules sorted,
// so the journal stays seed-deterministic.
//
//vpvet:deterministic
func (l *Loop) checkModules() {
	for _, p := range l.cluster.Pipelines() {
		killed := p.KilledModules()
		for _, mod := range p.Modules() {
			key := p.Name() + "." + mod
			st, ok := l.modHeal[key]
			if !slices.Contains(killed, mod) {
				if ok {
					st.observe(true)
				}
				continue
			}
			if !ok {
				st = &restartBudget{}
				l.modHeal[key] = st
			}
			st.observe(false)
			attempt, ok := st.claim()
			if !ok {
				continue
			}

			err := p.RestartModule(mod)
			st.backOff(attempt)
			if err != nil {
				continue
			}
			l.record(Action{Kind: ActionRestartModule, Target: key})
		}
	}
}

// checkServices walks every service pool and restarts those that are dead
// (zero instances) or error-bursting, under backoff and budget. It feeds
// the seed-compared action journal, so it must be deterministic.
//
//vpvet:deterministic
func (l *Loop) checkServices() {
	reg := l.cluster.Metrics()
	for _, svc := range l.cluster.ServiceNames() {
		host, _ := l.cluster.ServiceHost(svc)
		if l.cluster.IsDown(host) {
			// The failover path owns this pool now.
			continue
		}
		pool, err := l.cluster.Pool(svc)
		if err != nil {
			continue
		}
		if dev, _ := l.cluster.Device(host); dev.Paused() {
			// Hung host (chaos reboot): it will resume; restarting a pool
			// on a paused device would just block here too.
			continue
		}

		st, ok := l.svcHeal[svc]
		if !ok {
			st = &svcState{}
			l.svcHeal[svc] = st
		}

		// Error-burst detection from the per-service error meter.
		if meterDelta(reg.Meter("service."+svc+".errors").Count(), &st.lastErr) > errorBurst {
			st.burstSteps++
		} else {
			st.burstSteps = 0
		}

		size := pool.Size()
		healthy := size > 0 && st.burstSteps == 0
		st.observe(healthy)
		if healthy {
			st.desired = size
			continue
		}

		trigger := size == 0 || st.burstSteps >= 2
		if !trigger {
			continue
		}
		attempt, ok := st.claim()
		if !ok {
			continue
		}
		desired := st.desired
		if desired <= 0 {
			desired = 1
		}
		st.burstSteps = 0

		// Restart: drop the (possibly wedged) instances, then scale back
		// to the last healthy size.
		if size > 0 {
			pool.Kill(size)
		}
		err = pool.Scale(desired)
		st.backOff(attempt)
		if err != nil {
			continue
		}
		l.record(Action{Kind: ActionRestartService, Target: svc})
		reg.Meter("supervisor.restarts." + svc).Mark()
		// Absorb errors that accrued during the outage so the restarted
		// pool doesn't immediately trip the burst detector again.
		st.lastErr = reg.Meter("service." + svc + ".errors").Count()
	}
}
