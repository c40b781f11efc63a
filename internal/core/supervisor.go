package core

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"videopipe/internal/wire"
)

// SupervisorConfig tunes the self-healing control loop. The defaults are
// sized for the simulated testbed: probes every 150 ms with a 100 ms
// deadline, and a device is declared dead only after nine consecutive
// misses (~1.35 s) — long enough that a rebooting host (which resumes)
// is never mistaken for a dead one (which never does).
type SupervisorConfig struct {
	// Interval is the control-loop period; zero selects 150 ms.
	Interval time.Duration
	// ProbeTimeout bounds one liveness probe; zero selects 100 ms.
	ProbeTimeout time.Duration
	// DeadAfter is how many consecutive missed probes declare a device
	// dead; zero selects 9.
	DeadAfter int
	// RestartBackoff is the base delay between service-restart attempts,
	// growing exponentially per attempt; zero selects 250 ms.
	RestartBackoff time.Duration
	// RestartBackoffMax caps the exponential backoff; zero selects 2 s.
	RestartBackoffMax time.Duration
	// MaxRestarts is the per-service restart budget; the budget refills
	// after HealthyAfter of sustained health. Zero selects 5.
	MaxRestarts int
	// ErrorBurst is the per-step service-error delta that counts toward a
	// restart trigger (two consecutive bursty steps trip it); zero
	// selects 10.
	ErrorBurst uint64
	// HealthyAfter is how long a service must stay healthy before its
	// restart budget and backoff reset; zero selects 5 s.
	HealthyAfter time.Duration
	// Seed drives backoff jitter. Jitter only shifts timing — never which
	// recovery actions run or their order — so journals stay
	// seed-deterministic.
	Seed int64
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = 150 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 100 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 9
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 250 * time.Millisecond
	}
	if c.RestartBackoffMax <= 0 {
		c.RestartBackoffMax = 2 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.ErrorBurst <= 0 {
		c.ErrorBurst = 10
	}
	if c.HealthyAfter <= 0 {
		c.HealthyAfter = 5 * time.Second
	}
	return c
}

// restartBudget is the restart discipline service and module healing
// share: a bounded number of attempts, exponential backoff between them,
// and a refill once health has been sustained. Guarded by Supervisor.mu.
type restartBudget struct {
	// restarts spent from the budget since the last healthy stretch.
	restarts int
	// nextAttempt gates restart attempts (exponential backoff + jitter).
	nextAttempt time.Time
	// healthySince tracks sustained health for budget refill; the unhealthy
	// paths zero it.
	healthySince time.Time
}

// markHealthy notes one healthy observation; health sustained past
// healthyAfter refills the budget and clears the backoff.
func (b *restartBudget) markHealthy(now time.Time, healthyAfter time.Duration) {
	if b.healthySince.IsZero() {
		b.healthySince = now
	}
	if b.restarts > 0 && now.Sub(b.healthySince) > healthyAfter {
		b.restarts = 0
		b.nextAttempt = time.Time{}
	}
}

// claim spends one restart, returning the 1-based attempt number; ok is
// false while backing off or once the budget is exhausted.
func (b *restartBudget) claim(now time.Time, max int) (attempt int, ok bool) {
	if now.Before(b.nextAttempt) || b.restarts >= max {
		return 0, false
	}
	b.restarts++
	return b.restarts, true
}

// svcState is the supervisor's per-service bookkeeping.
type svcState struct {
	restartBudget
	// desired is the pool size observed while last healthy — the size a
	// restart restores.
	desired int
	// lastErr is the service error-meter reading at the previous step.
	lastErr uint64
	// burstSteps counts consecutive steps whose error delta exceeded the
	// burst threshold.
	burstSteps int
}

// Supervisor is the per-cluster self-healing control loop (the paper's
// §7 monitoring component grown teeth): it pings every device's health
// endpoint, inspects every service pool and sandboxed module, and turns
// what it sees into recovery actions — service restarts, failover
// re-planning and live module migration (heal.go). Stall detection and
// degraded-time accounting are not its job; they live in monitor.go.
type Supervisor struct {
	actionJournal

	cluster *Cluster
	cfg     SupervisorConfig
	rng     *rand.Rand
	// probes run from a dedicated network vantage point: device-pair
	// partitions (a crashed host dropping off the LAN) must not blind the
	// supervisor itself.
	probeNet wire.Transport

	mu      sync.Mutex
	callers map[string]*wire.Caller
	missed  map[string]int
	dead    map[string]bool
	svc     map[string]*svcState
	// mod is the per-module restart budget (sandbox kills), keyed by
	// "pipeline.module".
	mod map[string]*restartBudget
}

// NewSupervisor creates a supervisor for the cluster. It does nothing
// until Run.
func NewSupervisor(c *Cluster, cfg SupervisorConfig) *Supervisor {
	cfg = cfg.withDefaults()
	return &Supervisor{
		cluster:  c,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		probeNet: c.Network().Host("@supervisor"),
		callers:  make(map[string]*wire.Caller),
		missed:   make(map[string]int),
		dead:     make(map[string]bool),
		svc:      make(map[string]*svcState),
		mod:      make(map[string]*restartBudget),
	}
}

// Run drives the control loop until ctx is done, then releases the probe
// connections. Callers typically run it in a goroutine and cancel before
// tearing the cluster down.
func (s *Supervisor) Run(ctx context.Context) {
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	defer s.closeCallers()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.step(ctx)
		}
	}
}

func (s *Supervisor) closeCallers() {
	s.mu.Lock()
	callers := s.callers
	s.callers = make(map[string]*wire.Caller)
	s.mu.Unlock()
	for _, c := range callers {
		c.Close()
	}
}

// step is one control-loop iteration: probe, then heal.
func (s *Supervisor) step(ctx context.Context) {
	s.probeDevices(ctx)
	s.checkServices(ctx)
	s.checkModules()
}

// probeDevices pings every live device in parallel and declares dead any
// that has missed DeadAfter probes in a row.
func (s *Supervisor) probeDevices(ctx context.Context) {
	names := s.cluster.DeviceNames()
	type result struct {
		name string
		err  error
	}
	results := make([]result, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		caller, err := s.callerFor(name)
		if err != nil {
			results[i] = result{name: name, err: err}
			continue
		}
		wg.Add(1)
		go func(i int, name string, c *wire.Caller) {
			defer wg.Done()
			results[i] = result{name: name, err: wire.Ping(ctx, c)}
		}(i, name, caller)
	}
	wg.Wait()

	// Declaration happens outside the probe fan-out, in device order, so
	// the journal order is deterministic even when two devices die in the
	// same tick.
	for _, r := range results {
		if r.name == "" {
			continue
		}
		s.mu.Lock()
		if r.err == nil {
			s.missed[r.name] = 0
			s.mu.Unlock()
			continue
		}
		s.missed[r.name]++
		trip := s.missed[r.name] >= s.cfg.DeadAfter && !s.dead[r.name]
		if trip {
			s.dead[r.name] = true
		}
		s.mu.Unlock()
		if trip {
			s.declareDead(ctx, r.name)
		}
	}
}

// callerFor returns (dialing on first use) the probe caller for a device.
func (s *Supervisor) callerFor(name string) (*wire.Caller, error) {
	s.mu.Lock()
	if c, ok := s.callers[name]; ok {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	d, ok := s.cluster.Device(name)
	if !ok {
		return nil, errUnknownDevice(name)
	}
	addr, err := d.ServeHealth()
	if err != nil {
		return nil, err
	}
	c := wire.DialCaller(s.probeNet, addr.String())
	c.SetCallTimeout(s.cfg.ProbeTimeout)
	c.SetRetryBudget(1)
	s.mu.Lock()
	if prev, ok := s.callers[name]; ok {
		s.mu.Unlock()
		c.Close()
		return prev, nil
	}
	s.callers[name] = c
	s.mu.Unlock()
	return c, nil
}

// backOff gates b's next attempt behind the post-restart backoff for
// attempt n (1-based): exponential from the base, capped, plus up to 25%
// seeded jitter so a fleet of supervisors never thunders in lockstep.
// Jitter and the real-time clock shift timing only; neither decides
// whether an action runs nor reaches the action journal.
func (s *Supervisor) backOff(b *restartBudget, n int) {
	d := s.cfg.RestartBackoff << uint(n-1)
	if d > s.cfg.RestartBackoffMax || d <= 0 {
		d = s.cfg.RestartBackoffMax
	}
	s.mu.Lock()
	d += time.Duration(s.rng.Int63n(int64(d)/4 + 1))
	b.nextAttempt = time.Now().Add(d)
	s.mu.Unlock()
}
