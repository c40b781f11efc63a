package services

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"videopipe/internal/clock"
	"videopipe/internal/metrics"
)

// poolStats tracks the pool's live load levels, which the tune phase reads
// through QueueDepth and BusyWorkers.
type poolStats struct {
	queued atomic.Int64
	busy   atomic.Int64
}

// instance models one running container of a service: bounded worker
// concurrency and a simulated compute cost with a partially serialized
// section.
type instance struct {
	spec      Spec
	cpuFactor float64
	workers   chan struct{}
	serialMu  sync.Mutex
	inFlight  atomic.Int64
	calls     atomic.Uint64
	// stats points at the owning pool's load levels.
	stats *poolStats
}

// newInstance starts one of the pool's instances.
func (p *Pool) newInstance() *instance {
	return &instance{
		spec:      p.spec,
		cpuFactor: p.cpuFactor,
		workers:   make(chan struct{}, max(p.spec.Workers, 1)),
		stats:     &p.stats,
	}
}

// InFlight reports requests currently executing or queued on this instance.
func (i *instance) InFlight() int { return int(i.inFlight.Load()) }

// Calls reports the total requests served.
func (i *instance) Calls() uint64 { return i.calls.Load() }

// Invoke executes one request: waits for a worker slot, runs the handler,
// then pads execution up to the simulated inference cost (with the serial
// fraction under the instance lock, where sharing pipelines contend).
func (i *instance) Invoke(ctx context.Context, req Request) (Response, error) {
	i.inFlight.Add(1)
	defer i.inFlight.Add(-1)

	i.stats.queued.Add(1)
	select {
	case i.workers <- struct{}{}:
		i.stats.queued.Add(-1)
		i.stats.busy.Add(1)
		defer func() { <-i.workers; i.stats.busy.Add(-1) }()
	case <-ctx.Done():
		i.stats.queued.Add(-1)
		return Response{}, fmt.Errorf("services: %s: %w", i.spec.Name, ctx.Err())
	}

	start := time.Now()
	resp, err := i.spec.Handler(ctx, req)
	if err != nil {
		return Response{}, fmt.Errorf("services: %s: %w", i.spec.Name, err)
	}
	i.calls.Add(1)

	cost := time.Duration(float64(i.spec.Cost) / i.cpuFactor)
	if remaining := cost - time.Since(start); remaining > 0 {
		serial := time.Duration(float64(remaining) * i.spec.SerialFraction)
		parallel := remaining - serial
		if parallel > 0 {
			if !clock.Sleep(ctx, parallel) {
				return Response{}, fmt.Errorf("services: %s: %w", i.spec.Name, ctx.Err())
			}
		}
		if serial > 0 {
			i.serialMu.Lock()
			ok := clock.Sleep(ctx, serial)
			i.serialMu.Unlock()
			if !ok {
				return Response{}, fmt.Errorf("services: %s: %w", i.spec.Name, ctx.Err())
			}
		}
	}
	return resp, nil
}

// Pool is the scalable set of instances backing one service on one device —
// the unit that is shared across pipelines (paper §5.2.2) and scaled out
// when saturated.
type Pool struct {
	spec      Spec
	cpuFactor float64

	mu        sync.Mutex
	instances []*instance
	next      int
	// recent holds the excess waits of the latest requests enqueued since
	// the pool last grew: the tune phase's saturation signal
	// (RecentWaitP99).
	recent metrics.RecentTail

	wait  *metrics.Histogram
	stats poolStats
}

// NewPool creates a pool with n initial instances on hardware with the
// given CPU speed factor (1.0 = the paper's desktop; smaller is slower, so
// cost scales by 1/cpuFactor).
func NewPool(spec Spec, n int, cpuFactor float64) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("services: pool of %q needs at least one instance", spec.Name)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if cpuFactor <= 0 {
		return nil, fmt.Errorf("services: pool of %q: cpu factor %v must be positive", spec.Name, cpuFactor)
	}
	p := &Pool{spec: spec, cpuFactor: cpuFactor, wait: &metrics.Histogram{}}
	for k := 0; k < n; k++ {
		p.instances = append(p.instances, p.newInstance())
	}
	return p, nil
}

// QueueDepth reports requests admitted to the pool but not yet holding a
// worker slot.
func (p *Pool) QueueDepth() int { return int(p.stats.queued.Load()) }

// BusyWorkers reports worker slots currently executing.
func (p *Pool) BusyWorkers() int { return int(p.stats.busy.Load()) }

// Name reports the pooled service name.
func (p *Pool) Name() string { return p.spec.Name }

// Spec reports the pooled service's spec — the tuner reads its scaling
// bound from here.
func (p *Pool) Spec() Spec { return p.spec }

// Size reports the current instance count.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.instances)
}

// InFlight reports requests executing or queued across all instances.
func (p *Pool) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, i := range p.instances {
		total += i.InFlight()
	}
	return total
}

// Calls reports total requests served across all instances.
func (p *Pool) Calls() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for _, i := range p.instances {
		total += i.Calls()
	}
	return total
}

// WaitStats reports the distribution of the excess wait of every request
// the pool has served: a whole-run per-layer report. The tune phase reads
// RecentWaitP99 instead, since a run's p99 never forgets an early burst.
func (p *Pool) WaitStats() metrics.Snapshot { return p.wait.Snapshot() }

// RecentWaitP99 is the p99 excess wait of the pool's last
// metrics.RecentTailLen requests enqueued since it last grew (fewer while
// fewer exist, zero before the first): the tune phase's saturation signal.
func (p *Pool) RecentWaitP99() time.Duration {
	p.mu.Lock()
	tail := p.recent
	p.mu.Unlock()
	return tail.P99()
}

// Scale adjusts the pool to n instances. Shrinking is immediate —
// in-flight requests on removed instances complete, since instances are
// only garbage once callers drain. Growing restarts the recent waits: those
// queued behind the smaller pool describe a pool that no longer exists.
func (p *Pool) Scale(n int) error {
	if n <= 0 {
		return fmt.Errorf("services: cannot scale %q to %d instances", p.spec.Name, n)
	}
	p.mu.Lock()
	cur := len(p.instances)
	p.mu.Unlock()

	if n <= cur {
		p.mu.Lock()
		p.instances = p.instances[:n]
		if p.next >= n {
			p.next = 0
		}
		p.mu.Unlock()
		return nil
	}

	for k := cur; k < n; k++ {
		inst := p.newInstance()
		p.mu.Lock()
		p.instances = append(p.instances, inst)
		p.recent.Restart(time.Now())
		p.mu.Unlock()
	}
	return nil
}

// Kill removes up to k instances from the pool — the chaos engine's
// service-failure hook. Unlike Scale it may empty the pool entirely, after
// which Invoke fails until the pool is restored with Scale. In-flight
// requests on removed instances complete (instances are only garbage once
// callers drain). It returns the number of instances removed.
func (p *Pool) Kill(k int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k > len(p.instances) {
		k = len(p.instances)
	}
	if k <= 0 {
		return 0
	}
	p.instances = p.instances[:len(p.instances)-k]
	if p.next >= len(p.instances) {
		p.next = 0
	}
	return k
}

// Invoke dispatches a request to the least-loaded instance.
func (p *Pool) Invoke(ctx context.Context, req Request) (Response, error) {
	enqueued := time.Now()
	best, err := p.pick()
	if err != nil {
		return Response{}, err
	}
	resp, err := best.Invoke(ctx, req)
	p.observeWait(enqueued)
	return resp, err
}

// pick selects the least-loaded instance.
func (p *Pool) pick() (*instance, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.instances) == 0 {
		return nil, fmt.Errorf("services: pool %q has no instances", p.spec.Name)
	}
	best := p.instances[p.next%len(p.instances)]
	for _, inst := range p.instances {
		if inst.InFlight() < best.InFlight() {
			best = inst
		}
	}
	p.next++
	return best, nil
}

// observeWait records queueing/contention: anything beyond the nominal
// cost was waiting.
func (p *Pool) observeWait(enqueued time.Time) {
	nominal := time.Duration(float64(p.spec.Cost) / p.cpuFactor)
	extra := max(time.Since(enqueued)-nominal, 0)
	p.wait.Observe(extra)
	p.mu.Lock()
	p.recent.Observe(enqueued, extra)
	p.mu.Unlock()
}

// Batches reports how many batch invocations ran: always 0, since a pool
// runs every request on its own. It stays for readers that still report
// a batch mean.
func (p *Pool) Batches() uint64 { return 0 }

// BatchedRequests reports how many requests rode in batches: always 0,
// like Batches.
func (p *Pool) BatchedRequests() uint64 { return 0 }
