package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ActionKind classifies one supervisor recovery action.
type ActionKind int

// Recovery action kinds. Enums start at one.
const (
	// ActionRestartService restored a dead or error-bursting pool.
	ActionRestartService ActionKind = iota + 1
	// ActionDeviceDead declared a device dead after missed probes.
	ActionDeviceDead
	// ActionRedeployService moved a dead device's pool to a survivor.
	ActionRedeployService
	// ActionMigrateModule live-migrated a module off a dead device.
	ActionMigrateModule
	// ActionScalePool resized a service pool's instance count (tuner).
	ActionScalePool
	// ActionSetBatch changed a pool's dynamic batch size (tuner).
	ActionSetBatch
	// ActionResizeCredits changed a pipeline's credit window (tuner).
	ActionResizeCredits
	// ActionRebalanceModule re-placed a saturated module using measured
	// service times (tuner re-planning via live migration).
	ActionRebalanceModule
	// ActionRestartModule replaced a module its sandbox killed after
	// repeated resource-budget breaches.
	ActionRestartModule
)

// Action is one journal entry: what the supervisor did and to what. It
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
	case ActionSetBatch:
		return fmt.Sprintf("set_batch %s %s->%s", a.Target, a.From, a.To)
	case ActionResizeCredits:
		return fmt.Sprintf("resize_credits %s %s->%s", a.Target, a.From, a.To)
	case ActionRebalanceModule:
		return fmt.Sprintf("rebalance_module %s %s->%s", a.Target, a.From, a.To)
	case ActionRestartModule:
		return "restart_module " + a.Target
	default:
		return fmt.Sprintf("action(%d) %s", int(a.Kind), a.Target)
	}
}

// actionJournal is the ordered, append-only action log a control loop
// keeps; Supervisor and Tuner embed one each.
type actionJournal struct {
	journalMu sync.Mutex
	journal   []Action
}

func (j *actionJournal) record(a Action) {
	j.journalMu.Lock()
	j.journal = append(j.journal, a)
	j.journalMu.Unlock()
}

// Journal returns the actions taken so far, in order.
func (j *actionJournal) Journal() []Action {
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	return append([]Action(nil), j.journal...)
}

// JournalStrings renders the journal, for logs and assertions.
func (j *actionJournal) JournalStrings() []string {
	acts := j.Journal()
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.String()
	}
	return out
}

// errUnknownDevice keeps the supervisor's error text in one place.
func errUnknownDevice(name string) error {
	return fmt.Errorf("core: supervisor: unknown device %q", name)
}

// declareDead runs the full failover sequence for a device that missed
// too many probes: mark it down (planners stop seeing it), move its
// service pools to surviving container-capable devices, then re-plan
// every pipeline and live-migrate the orphaned modules. The action
// journal it appends to is compared across same-seed runs.
//
//vpvet:deterministic
func (s *Supervisor) declareDead(ctx context.Context, name string) {
	s.cluster.MarkDown(name)
	s.record(Action{Kind: ActionDeviceDead, Target: name})
	s.cluster.Metrics().Meter("supervisor.devices_dead").Mark()

	// Move every pool the dead device hosted. Services iterate sorted
	// (ServiceNames) and the target is the first surviving
	// container-capable device in configuration order, so the journal is
	// identical run to run.
	for _, svc := range s.cluster.ServiceNames() {
		host, ok := s.cluster.ServiceHost(svc)
		if !ok || host != name {
			continue
		}
		target, ok := s.redeployTarget()
		if !ok {
			continue
		}
		desired := 1
		s.mu.Lock()
		if st, ok := s.svc[svc]; ok && st.desired > 0 {
			desired = st.desired
		}
		s.mu.Unlock()
		if err := s.cluster.RedeployService(ctx, svc, target, desired); err != nil {
			continue
		}
		s.record(Action{Kind: ActionRedeployService, Target: svc, From: name, To: target})
	}

	// Re-plan and migrate. Launch order of pipelines is stable, and
	// FailOver migrates orphans in sorted order.
	for _, p := range s.cluster.Pipelines() {
		migrated, _ := p.FailOver(name)
		placement := p.Placement()
		for _, mod := range migrated {
			s.record(Action{
				Kind:   ActionMigrateModule,
				Target: p.Name() + "." + mod,
				From:   name,
				To:     placement[mod],
			})
		}
	}
}

// redeployTarget picks the first surviving container-capable device in
// configuration order.
func (s *Supervisor) redeployTarget() (string, bool) {
	for _, name := range s.cluster.DeviceNames() {
		if d, ok := s.cluster.Device(name); ok && d.ContainerCapable() {
			return name, true
		}
	}
	return "", false
}

// checkModules restarts modules whose sandbox killed them after repeated
// budget breaches, under the same backoff/budget discipline as service
// restarts. Pipelines iterate in launch order and killed modules sorted,
// so the journal stays seed-deterministic.
//
//vpvet:deterministic
func (s *Supervisor) checkModules() {
	now := time.Now() //vpvet:allow determinism real-time backoff clock; never recorded in the action journal
	for _, p := range s.cluster.Pipelines() {
		killed := make(map[string]bool)
		for _, mod := range p.KilledModules() {
			killed[mod] = true
		}
		for _, mod := range p.Modules() {
			key := p.Name() + "." + mod
			s.mu.Lock()
			st, ok := s.mod[key]
			if !killed[mod] {
				if ok {
					st.markHealthy(now, s.cfg.HealthyAfter)
				}
				s.mu.Unlock()
				continue
			}
			if !ok {
				st = &restartBudget{}
				s.mod[key] = st
			}
			st.healthySince = time.Time{}
			attempt, ok := st.claim(now, s.cfg.MaxRestarts)
			s.mu.Unlock()
			if !ok {
				continue
			}

			err := p.RestartModule(mod)
			s.backOff(st, attempt)
			if err != nil {
				continue
			}
			s.record(Action{Kind: ActionRestartModule, Target: key})
			s.cluster.Metrics().Meter("supervisor.module_restarts").Mark()
		}
	}
}

// checkServices walks every service pool and restarts those that are dead
// (zero instances) or error-bursting, under backoff and budget. It feeds
// the seed-compared action journal, so everything except the
// explicitly-allowed backoff clock must be deterministic.
//
//vpvet:deterministic
func (s *Supervisor) checkServices(ctx context.Context) {
	reg := s.cluster.Metrics()
	now := time.Now() //vpvet:allow determinism real-time backoff clock; never recorded in the action journal
	for _, svc := range s.cluster.ServiceNames() {
		if host, _ := s.cluster.ServiceHost(svc); s.cluster.IsDown(host) {
			// The failover path owns this pool now.
			continue
		}
		pool, err := s.cluster.Pool(svc)
		if err != nil {
			continue
		}
		if pool.Paused() {
			// Hung host (chaos reboot): it will resume; restarting a
			// paused pool would just block here too.
			continue
		}

		s.mu.Lock()
		st, ok := s.svc[svc]
		if !ok {
			st = &svcState{}
			s.svc[svc] = st
		}

		// Error-burst detection from the per-service error meter. The
		// meter can move backwards when the experiment harness resets the
		// registry between phases; treat that as a fresh baseline.
		cur := reg.Meter("service." + svc + ".errors").Count()
		if cur < st.lastErr {
			st.lastErr = cur
		}
		delta := cur - st.lastErr
		st.lastErr = cur
		if delta > s.cfg.ErrorBurst {
			st.burstSteps++
		} else {
			st.burstSteps = 0
		}

		size := pool.Size()
		healthy := size > 0 && st.burstSteps == 0
		if healthy {
			st.desired = size
			st.markHealthy(now, s.cfg.HealthyAfter)
			s.mu.Unlock()
			continue
		}
		st.healthySince = time.Time{}

		trigger := size == 0 || st.burstSteps >= 2
		if !trigger {
			s.mu.Unlock()
			continue
		}
		attempt, ok := st.claim(now, s.cfg.MaxRestarts)
		if !ok {
			s.mu.Unlock()
			continue
		}
		desired := st.desired
		if desired <= 0 {
			desired = 1
		}
		st.burstSteps = 0
		s.mu.Unlock()

		// Restart: drop the (possibly wedged) instances, then scale back
		// to the last healthy size.
		if size > 0 {
			pool.Kill(size)
		}
		err = pool.Scale(ctx, desired)
		s.backOff(&st.restartBudget, attempt)
		if err != nil {
			continue
		}
		s.record(Action{Kind: ActionRestartService, Target: svc})
		reg.Meter("supervisor.restarts." + svc).Mark()
		s.mu.Lock()
		// Absorb errors that accrued during the outage so the restarted
		// pool doesn't immediately trip the burst detector again.
		st.lastErr = reg.Meter("service." + svc + ".errors").Count()
		s.mu.Unlock()
	}
}
