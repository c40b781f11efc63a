package services

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"videopipe/internal/metrics"
)

// poolStats tracks the pool's live load levels and mirrors them into
// registry gauges once Instrument attaches them. All methods are safe on
// a nil receiver so a standalone Instance (no pool) costs nothing.
type poolStats struct {
	queued atomic.Int64
	busy   atomic.Int64
	depthG atomic.Pointer[metrics.Gauge]
	busyG  atomic.Pointer[metrics.Gauge]
}

func (s *poolStats) addQueued(d int64) {
	if s == nil {
		return
	}
	s.queued.Add(d)
	s.publish()
}

func (s *poolStats) addBusy(d int64) {
	if s == nil {
		return
	}
	s.busy.Add(d)
	s.publish()
}

func (s *poolStats) publish() {
	if g := s.depthG.Load(); g != nil {
		g.Set(s.queued.Load())
	}
	if g := s.busyG.Load(); g != nil {
		g.Set(s.busy.Load())
	}
}

// Instance models one running container of a service: bounded worker
// concurrency and a simulated compute cost with a partially serialized
// section.
type Instance struct {
	spec      Spec
	cpuFactor float64
	workers   chan struct{}
	serialMu  sync.Mutex
	inFlight  atomic.Int64
	calls     atomic.Uint64
	// stats points at the owning pool's load levels; nil for standalone
	// instances.
	stats *poolStats
}

// NewInstance starts an instance on hardware with the given CPU speed
// factor (1.0 = the paper's desktop; smaller is slower, so cost scales by
// 1/cpuFactor).
func NewInstance(spec Spec, cpuFactor float64) (*Instance, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if cpuFactor <= 0 {
		return nil, fmt.Errorf("services: instance of %q: cpu factor %v must be positive", spec.Name, cpuFactor)
	}
	w := spec.Workers
	if w <= 0 {
		w = 1
	}
	return &Instance{
		spec:      spec,
		cpuFactor: cpuFactor,
		workers:   make(chan struct{}, w),
	}, nil
}

// Spec reports the instance's service spec.
func (i *Instance) Spec() Spec { return i.spec }

// InFlight reports requests currently executing or queued on this instance.
func (i *Instance) InFlight() int { return int(i.inFlight.Load()) }

// Calls reports the total requests served.
func (i *Instance) Calls() uint64 { return i.calls.Load() }

// Invoke executes one request: waits for a worker slot, runs the handler,
// then pads execution up to the simulated inference cost (with the serial
// fraction under the instance lock, where sharing pipelines contend).
func (i *Instance) Invoke(ctx context.Context, req Request) (Response, error) {
	i.inFlight.Add(1)
	defer i.inFlight.Add(-1)

	i.stats.addQueued(1)
	select {
	case i.workers <- struct{}{}:
		i.stats.addQueued(-1)
		i.stats.addBusy(1)
		defer func() { <-i.workers; i.stats.addBusy(-1) }()
	case <-ctx.Done():
		i.stats.addQueued(-1)
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
			if !sleepCtx(ctx, parallel) {
				return Response{}, fmt.Errorf("services: %s: %w", i.spec.Name, ctx.Err())
			}
		}
		if serial > 0 {
			i.serialMu.Lock()
			ok := sleepCtx(ctx, serial)
			i.serialMu.Unlock()
			if !ok {
				return Response{}, fmt.Errorf("services: %s: %w", i.spec.Name, ctx.Err())
			}
		}
	}
	return resp, nil
}

// invokeBatch executes several requests as one amortized invocation: one
// worker slot, handlers run sequentially in request order (the
// bit-determinism contract — identical inputs see identical handler
// state), the parallel share of the simulated cost is paid per request,
// and the serialized section is paid ONCE for the whole batch. That last
// part is the thermodynamic win: the per-instance serial lock bounds pool
// throughput at 1/serial without batching and batch/serial with it.
func (i *Instance) invokeBatch(ctx context.Context, reqs []Request) ([]Response, []error) {
	n := len(reqs)
	resps := make([]Response, n)
	errs := make([]error, n)
	fail := func(err error) ([]Response, []error) {
		for k := range errs {
			if errs[k] == nil {
				errs[k] = fmt.Errorf("services: %s: %w", i.spec.Name, err)
			}
		}
		return resps, errs
	}

	i.inFlight.Add(int64(n))
	defer i.inFlight.Add(int64(-n))

	i.stats.addQueued(int64(n))
	select {
	case i.workers <- struct{}{}:
		i.stats.addQueued(int64(-n))
		i.stats.addBusy(1)
		defer func() { <-i.workers; i.stats.addBusy(-1) }()
	case <-ctx.Done():
		i.stats.addQueued(int64(-n))
		return fail(ctx.Err())
	}

	start := time.Now()
	executed := 0
	for k := range reqs {
		resp, err := i.spec.Handler(ctx, reqs[k])
		if err != nil {
			errs[k] = fmt.Errorf("services: %s: %w", i.spec.Name, err)
			continue
		}
		resps[k] = resp
		executed++
		i.calls.Add(1)
	}

	cost := time.Duration(float64(i.spec.Cost) / i.cpuFactor)
	serial := time.Duration(float64(cost) * i.spec.SerialFraction)
	parallel := cost - serial
	if budget := time.Duration(executed)*parallel - time.Since(start); budget > 0 {
		if !sleepCtx(ctx, budget) {
			return fail(ctx.Err())
		}
	}
	if executed > 0 && serial > 0 {
		i.serialMu.Lock()
		ok := sleepCtx(ctx, serial)
		i.serialMu.Unlock()
		if !ok {
			return fail(ctx.Err())
		}
	}
	return resps, errs
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Pool is the scalable set of instances backing one service on one device —
// the unit that is shared across pipelines (paper §5.2.2) and scaled out
// when saturated.
type Pool struct {
	spec      Spec
	cpuFactor float64

	mu        sync.Mutex
	instances []*Instance
	next      int
	// gate is non-nil while the pool is paused (chaos: host device down);
	// Invoke blocks on it until Resume closes it.
	gate chan struct{}

	wait  *metrics.Histogram
	stats poolStats

	// batchMu guards the batch-collector lifecycle; batchQ is non-nil
	// while batching is enabled. Enqueue attempts hold batchMu so that
	// SetBatching can retire a collector without stranding a request.
	batchMu   sync.Mutex
	batchQ    chan *pendingCall
	batchStop chan struct{}
	batchMax  int

	batches     atomic.Uint64
	batchedReqs atomic.Uint64
}

// pendingCall is one request parked in the batch collector's queue.
type pendingCall struct {
	ctx  context.Context
	req  Request
	done chan batchOutcome
}

type batchOutcome struct {
	resp Response
	err  error
}

// NewPool creates a pool with n initial instances.
func NewPool(spec Spec, n int, cpuFactor float64) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("services: pool of %q needs at least one instance", spec.Name)
	}
	p := &Pool{spec: spec, cpuFactor: cpuFactor, wait: &metrics.Histogram{}}
	for k := 0; k < n; k++ {
		inst, err := NewInstance(spec, cpuFactor)
		if err != nil {
			return nil, err
		}
		inst.stats = &p.stats
		p.instances = append(p.instances, inst)
	}
	return p, nil
}

// Instrument mirrors the pool's live load levels into the registry's
// service.<name>.queue_depth and service.<name>.busy_workers gauges — the
// tuner's primary saturation signal.
func (p *Pool) Instrument(reg *metrics.Registry) {
	p.stats.depthG.Store(reg.Gauge("service." + p.spec.Name + ".queue_depth"))
	p.stats.busyG.Store(reg.Gauge("service." + p.spec.Name + ".busy_workers"))
	p.stats.publish()
}

// QueueDepth reports requests admitted to the pool but not yet holding a
// worker slot.
func (p *Pool) QueueDepth() int { return int(p.stats.queued.Load()) }

// BusyWorkers reports worker slots currently executing.
func (p *Pool) BusyWorkers() int { return int(p.stats.busy.Load()) }

// Name reports the pooled service name.
func (p *Pool) Name() string { return p.spec.Name }

// Spec reports the pooled service's spec — the tuner reads its batching
// and scaling bounds from here.
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

// WaitStats reports the distribution of time requests spent waiting before
// execution began, the tuner's saturation signal.
func (p *Pool) WaitStats() metrics.Snapshot { return p.wait.Snapshot() }

// Scale adjusts the pool to n instances. Shrinking is immediate —
// in-flight requests on removed instances complete, since instances are
// only garbage once callers drain.
func (p *Pool) Scale(ctx context.Context, n int) error {
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
		inst, err := NewInstance(p.spec, p.cpuFactor)
		if err != nil {
			return err
		}
		inst.stats = &p.stats
		p.mu.Lock()
		p.instances = append(p.instances, inst)
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

// Pause freezes the pool: Invoke blocks (bounded by its context) until
// Resume. It models the hosting device going down with requests in flight.
func (p *Pool) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gate == nil {
		p.gate = make(chan struct{})
	}
}

// Resume releases a paused pool; blocked Invokes proceed.
func (p *Pool) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gate != nil {
		close(p.gate)
		p.gate = nil
	}
}

// Paused reports whether the pool is currently gated. The supervisor uses
// it to tell a hung host (don't restart — it will resume) from a dead pool
// (restart now).
func (p *Pool) Paused() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gate != nil
}

// Invoke dispatches a request to the least-loaded instance, or parks it
// in the batch collector's queue when batching is enabled (overflow and
// disabled both fall back to the direct path).
func (p *Pool) Invoke(ctx context.Context, req Request) (Response, error) {
	if err := p.waitGate(ctx); err != nil {
		return Response{}, err
	}

	enqueued := time.Now()
	if pc := p.tryEnqueueBatch(ctx, req); pc != nil {
		// The collector owns completion; block unconditionally so frame
		// ownership never forks (the collector checks pc.ctx per item).
		out := <-pc.done
		p.observeWait(enqueued)
		return out.resp, out.err
	}

	best, err := p.pick()
	if err != nil {
		return Response{}, err
	}
	resp, err := best.Invoke(ctx, req)
	p.observeWait(enqueued)
	return resp, err
}

// waitGate blocks while the pool is paused.
func (p *Pool) waitGate(ctx context.Context) error {
	p.mu.Lock()
	gate := p.gate
	p.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return fmt.Errorf("services: %s paused: %w", p.spec.Name, ctx.Err())
		}
	}
	return nil
}

// pick selects the least-loaded instance.
func (p *Pool) pick() (*Instance, error) {
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
	if extra := time.Since(enqueued) - nominal; extra > 0 {
		p.wait.Observe(extra)
	} else {
		p.wait.Observe(0)
	}
}

// SetBatching configures the pool's dynamic batch collector: up to max
// queued requests are coalesced into one invocation, the first waiting at
// most linger for company. max is clamped to the spec's MaxBatch; an
// effective max <= 1 disables batching (the default). Safe to call at any
// time; in-queue requests from a retired collector still complete.
func (p *Pool) SetBatching(max int, linger time.Duration) {
	if p.spec.MaxBatch < max {
		max = p.spec.MaxBatch
	}
	if linger < 0 {
		linger = 0
	}
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	if p.batchStop != nil {
		close(p.batchStop)
		p.batchStop = nil
		p.batchQ = nil
	}
	p.batchMax = 0
	if max <= 1 {
		return
	}
	q := make(chan *pendingCall, 4*max)
	stop := make(chan struct{})
	p.batchQ, p.batchStop, p.batchMax = q, stop, max
	go p.collect(q, stop, max, linger)
}

// BatchSize reports the collector's current max batch size (0 when
// batching is disabled).
func (p *Pool) BatchSize() int {
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	return p.batchMax
}

// Batches reports how many amortized batch invocations ran.
func (p *Pool) Batches() uint64 { return p.batches.Load() }

// BatchedRequests reports how many requests rode in those batches.
func (p *Pool) BatchedRequests() uint64 { return p.batchedReqs.Load() }

// tryEnqueueBatch parks the request in the collector queue, returning nil
// when batching is off or the queue is full (caller takes the direct
// path). The enqueue happens under batchMu so SetBatching can never
// retire a collector with a request about to land in its queue.
func (p *Pool) tryEnqueueBatch(ctx context.Context, req Request) *pendingCall {
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	if p.batchQ == nil {
		return nil
	}
	pc := &pendingCall{ctx: ctx, req: req, done: make(chan batchOutcome, 1)}
	select {
	case p.batchQ <- pc:
		return pc
	default:
		return nil
	}
}

// collect is the batch collector loop: take one request, linger for more
// up to max, run them as one invocation. On stop it drains stragglers so
// no parked request is stranded.
func (p *Pool) collect(q chan *pendingCall, stop chan struct{}, max int, linger time.Duration) {
	for {
		var lead *pendingCall
		select {
		case lead = <-q:
		case <-stop:
			// SetBatching nils the queue before closing stop, so no new
			// sends can race this drain.
			for {
				select {
				case pc := <-q:
					p.runBatch([]*pendingCall{pc})
				default:
					return
				}
			}
		}

		batch := append(make([]*pendingCall, 0, max), lead)
		if linger > 0 {
			timer := time.NewTimer(linger)
			for len(batch) < max {
				select {
				case pc := <-q:
					batch = append(batch, pc)
					continue
				case <-timer.C:
				case <-stop:
				}
				break
			}
			timer.Stop()
		}
		// Sweep anything already queued, lingering or not.
	sweep:
		for len(batch) < max {
			select {
			case pc := <-q:
				batch = append(batch, pc)
			default:
				break sweep
			}
		}
		// Execute off the collector goroutine so the next batch can form
		// (and run on another instance/worker) while this one executes.
		go p.runBatch(batch)
	}
}

// runBatch executes one collected batch on the least-loaded instance and
// delivers per-request outcomes. Requests whose context already expired
// are failed without executing (their caller is still parked on done and
// owns the frame after delivery).
func (p *Pool) runBatch(batch []*pendingCall) {
	live := make([]*pendingCall, 0, len(batch))
	for _, pc := range batch {
		if err := pc.ctx.Err(); err != nil {
			pc.done <- batchOutcome{err: fmt.Errorf("services: %s: %w", p.spec.Name, err)}
			continue
		}
		live = append(live, pc)
	}
	if len(live) == 0 {
		return
	}
	inst, err := p.pick()
	if err != nil {
		for _, pc := range live {
			pc.done <- batchOutcome{err: err}
		}
		return
	}
	reqs := make([]Request, len(live))
	for k, pc := range live {
		reqs[k] = pc.req
	}
	p.batches.Add(1)
	p.batchedReqs.Add(uint64(len(live)))
	resps, errs := inst.invokeBatch(live[0].ctx, reqs)
	for k, pc := range live {
		pc.done <- batchOutcome{resp: resps[k], err: errs[k]}
	}
}
