package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/netsim"
)

// Applied records one fault the injector actually injected, in injection
// order — the run log reproducibility tests compare against the schedule.
type Applied struct {
	// At is the event's scheduled offset.
	At time.Duration
	// Kind and Target identify the fault.
	Kind   Kind
	Target string
}

// Injector drives a Schedule against a running cluster. Every injected
// fault is reversed — after its duration, or immediately when the run
// context is cancelled — so a cluster is always restored to health before
// Run returns.
type Injector struct {
	cluster *core.Cluster

	// Spike is the profile overlaid by latency-spike events: congested
	// Wi-Fi an order of magnitude slower than the healthy link.
	Spike netsim.LinkProfile
	// Burst is the profile overlaid by loss-burst events: heavy
	// retransmission on otherwise-nominal Wi-Fi.
	Burst netsim.LinkProfile

	// ExternalRepair hands kill_service recovery to an external agent
	// (the supervisor): the injector stops restoring killed pools itself,
	// so a test passing only proves the supervisor healed the cluster.
	// Link faults and device pauses still reverse (a reboot completes, a
	// cable comes back, with or without a supervisor).
	ExternalRepair bool

	mu      sync.Mutex
	applied []Applied
}

// NewInjector creates an injector for the cluster with default spike and
// burst profiles.
func NewInjector(c *core.Cluster) *Injector {
	return &Injector{
		cluster: c,
		Spike: netsim.LinkProfile{
			Latency:   80 * time.Millisecond,
			Jitter:    30 * time.Millisecond,
			Bandwidth: 1_500_000, // ~12 Mbit/s: congested Wi-Fi
			Loss:      0.01,
		},
		Burst: netsim.LinkProfile{
			Latency:   5 * time.Millisecond,
			Jitter:    2 * time.Millisecond,
			Bandwidth: 12_500_000,
			Loss:      0.35,
		},
	}
}

// Applied returns the injection log so far, in injection order.
func (inj *Injector) Applied() []Applied {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Applied(nil), inj.applied...)
}

// Run executes the schedule against the cluster: it waits to each event's
// offset, injects the fault, and schedules its reversal. When ctx ends,
// no further events are injected but every outstanding fault is reversed
// before Run returns. It returns the injection log.
func (inj *Injector) Run(ctx context.Context, s Schedule) []Applied {
	start := time.Now()
	reg := inj.cluster.Metrics()
	var reversals sync.WaitGroup

	for _, ev := range s.Sorted() {
		if !sleepUntil(ctx, start.Add(ev.At)) {
			break
		}
		reverse, err := inj.apply(ev)
		if err != nil {
			// A bad target (unknown service, malformed link) is a
			// schedule bug, not a fault to inject; record and move on.
			reg.Meter("chaos.errors").Mark()
			continue
		}
		reg.Meter("chaos.injected").Mark()
		inj.mu.Lock()
		inj.applied = append(inj.applied, Applied{At: ev.At, Kind: ev.Kind, Target: ev.Target})
		inj.mu.Unlock()

		reversals.Add(1)
		go func(d time.Duration, reverse func()) {
			defer reversals.Done()
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
			reverse()
		}(ev.Duration, reverse)
	}

	reversals.Wait()
	return inj.Applied()
}

// apply injects one fault and returns its reversal. Reversals use the
// substrates' unconditional restore paths (Heal, ClearShape, Resume,
// Scale with a background context) so they succeed even mid-shutdown.
func (inj *Injector) apply(ev Event) (func(), error) {
	nw := inj.cluster.Network()
	switch ev.Kind {
	case KindPartition:
		a, b, err := SplitLink(ev.Target)
		if err != nil {
			return nil, err
		}
		nw.Partition(a, b)
		return func() { nw.Heal(a, b) }, nil

	case KindLatencySpike, KindLossBurst:
		a, b, err := SplitLink(ev.Target)
		if err != nil {
			return nil, err
		}
		profile := inj.Spike
		if ev.Kind == KindLossBurst {
			profile = inj.Burst
		}
		nw.Shape(a, b, profile)
		return func() { nw.ClearShape(a, b) }, nil

	case KindKillService:
		pool, err := inj.cluster.Pool(ev.Target)
		if err != nil {
			return nil, err
		}
		prev := pool.Size()
		if prev == 0 {
			return nil, fmt.Errorf("chaos: pool %q already empty", ev.Target)
		}
		pool.Kill(prev)
		if inj.ExternalRepair {
			return func() {}, nil
		}
		return func() { _ = pool.Scale(prev) }, nil

	case KindPauseDevice:
		dev, ok := inj.cluster.Device(ev.Target)
		if !ok {
			return nil, fmt.Errorf("chaos: unknown device %q", ev.Target)
		}
		dev.Pause()
		return dev.Resume, nil

	case KindRunawayModule, KindHogModule:
		pname, mod, err := SplitModuleTarget(ev.Target)
		if err != nil {
			return nil, err
		}
		var pipe *core.Pipeline
		for _, p := range inj.cluster.Pipelines() {
			if p.Name() == pname {
				pipe = p
				break
			}
		}
		if pipe == nil {
			return nil, fmt.Errorf("chaos: unknown pipeline %q", pname)
		}
		src := RunawaySource
		if ev.Kind == KindHogModule {
			src = HogSource
		}
		// Hot-swap hostile code into the live module. The fault is
		// permanent from the injector's perspective: the sandbox must
		// breach and kill the module, and the supervisor must restart it
		// from its original source — there is deliberately no reversal.
		if err := pipe.UpdateModule(mod, src); err != nil {
			return nil, err
		}
		return func() {}, nil

	case KindDeviceCrash:
		dev, ok := inj.cluster.Device(ev.Target)
		if !ok {
			return nil, fmt.Errorf("chaos: unknown device %q", ev.Target)
		}
		// A crashed host hangs (Crash) and drops off the LAN for every
		// peer; the supervisor's probe vantage point is not a device, so
		// it still observes the hang and can declare death. The fault is
		// permanent: there is deliberately no reversal.
		dev.Crash()
		for _, other := range inj.cluster.DeviceNames() {
			if other != ev.Target {
				nw.Partition(other, ev.Target)
			}
		}
		return func() {}, nil

	default:
		return nil, fmt.Errorf("chaos: unknown event kind %v", ev.Kind)
	}
}

// sleepUntil blocks until t or ctx ends, reporting whether t was reached.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
