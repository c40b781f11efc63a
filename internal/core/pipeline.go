package core

import (
	"context"
	"errors"
	"fmt"
	"image/color"
	"sort"
	"strings"
	"sync"
	"time"
	"unique"

	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/script"
	"videopipe/internal/vision"
)

// Pipeline is a deployed application: modules spawned across cluster
// devices per a plan, wired into a DAG, with a paced source feeding the
// first module under credit-based flow control (§2.3).
type Pipeline struct {
	name    string
	cfg     PipelineConfig
	cluster *Cluster
	// planner is kept so the supervisor can re-plan after a device
	// failure with the same strategy the pipeline launched with.
	planner Planner

	source *frame.Source

	// creditMu guards the credit window (§2.3). A counter rather than a
	// channel so the tuner can widen or narrow the window on a live
	// pipeline (ResizeCredits); avail + in-flight never exceeds cap.
	creditMu    sync.Mutex
	creditAvail int
	creditCap   int
	// tail holds the capture-to-completion latency of the lane's latest
	// frames captured since forgetTail: the tail the current credit window
	// produces, which is what the tuner's credit rules read (recentP99).
	tail metrics.RecentTail

	// mu guards the fields below: placement and module instances become
	// mutable once live migration exists.
	mu      sync.Mutex
	plan    Plan
	modules map[string]*device.Module // raw module name -> instance
	entry   *device.Module
	// remoteEdges counts DAG edges whose two ends sit on different devices
	// under the current placement (Offer sizes its buffer reservation by it).
	remoteEdges int
	closed      bool
	running     bool
	migrating   bool
}

// Launch validates, plans and deploys a pipeline onto the cluster. Module
// and metric names are prefixed with the pipeline name, so multiple
// pipelines coexist (sharing service pools, §5.2.2).
func (c *Cluster) Launch(cfg PipelineConfig, planner Planner) (*Pipeline, error) {
	if planner == nil {
		planner = CoLocatePlanner{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Static analysis gate (pipevet): reject error-severity findings before
	// anything deploys; warnings only bump a meter.
	diags := AnalyzePipeline(&cfg)
	errs := AnalysisErrors(diags)
	for range len(diags) - len(errs) {
		c.reg.Meter("analysis." + cfg.Name + ".warnings").Mark()
	}
	if len(errs) > 0 {
		return nil, &AnalysisError{Pipeline: cfg.Name, Diagnostics: errs}
	}
	plan, err := planner.Plan(&cfg, c)
	if err != nil {
		return nil, err
	}
	for name, dev := range plan.Placement {
		if _, ok := c.Device(dev); !ok {
			return nil, fmt.Errorf("core: plan places %q on unknown device %q", name, dev)
		}
	}
	// Every service a module uses must be reachable from its device.
	for _, m := range cfg.Modules {
		d, _ := c.Device(plan.Placement[m.Name])
		for _, svc := range m.Services {
			if !d.HasService(svc) {
				return nil, fmt.Errorf("core: module %q on %q cannot reach service %q", m.Name, d.Name(), svc)
			}
		}
	}

	p := &Pipeline{
		name:      cfg.Name,
		cfg:       cfg,
		cluster:   c,
		plan:      plan,
		planner:   planner,
		modules:   make(map[string]*device.Module, len(cfg.Modules)),
		creditCap: plan.Credits,
	}

	// Spawn sinks-first (reverse topological order) so every edge's
	// destination endpoint exists when its source spawns.
	order, err := cfg.TopoOrder()
	if err != nil {
		return nil, err
	}
	for i := len(order) - 1; i >= 0; i-- {
		mc, _ := cfg.Module(order[i])
		if err := p.spawnModule(mc); err != nil {
			p.Close()
			return nil, err
		}
	}

	// All modules signal frame completion back to the source's credit
	// pool; the script decides which module calls frame_done(). Events
	// that error out before frame_done also return their credit so a
	// fault burst cannot permanently starve the source.
	for _, m := range p.modules {
		m.SetFrameDone(p.frameDone)
		m.SetFrameAbandoned(p.returnCredit)
	}

	// Build the source.
	renderer := cfg.Source.Renderer
	if renderer == nil {
		renderer, err = sceneRenderer(cfg.Source)
		if err != nil {
			p.Close()
			return nil, err
		}
	}
	src, err := frame.NewSource(cfg.Source.FPS, renderer)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.source = src
	p.entry = p.modules[cfg.Source.FirstModule]
	p.countRemoteEdges()

	c.mu.Lock()
	c.pipelines = append(c.pipelines, p)
	c.mu.Unlock()
	return p, nil
}

// SourceRenderer builds the synthetic-camera renderer the pipeline's own
// source would use for sc — exported for the flood harness, which paces
// frame injection itself (via Offer) but must render frames exactly as
// Run would, so flooded and source-driven pipelines see the same scenes.
func SourceRenderer(sc SourceConfig) (frame.Renderer, error) {
	return sceneRenderer(sc)
}

func sceneRenderer(sc SourceConfig) (frame.Renderer, error) {
	if sc.Scene == "" {
		return frame.SolidRenderer(sc.Width, sc.Height, backgroundGray), nil
	}
	activity, err := vision.ParseActivity(sc.Scene)
	if err != nil {
		return nil, err
	}
	repRate := sc.RepRate
	if repRate <= 0 {
		repRate = 0.5
	}
	subject := vision.DefaultSubject()
	subject.CenterX = float64(sc.Width) / 2
	subject.CenterY = float64(sc.Height) * 0.54
	subject.Scale = float64(sc.Height) / 6
	return vision.SceneRenderer(sc.Width, sc.Height, activity, repRate, subject), nil
}

func (p *Pipeline) spawnModule(mc *ModuleConfig) error {
	devName := p.plan.Placement[mc.Name]
	d, _ := p.cluster.Device(devName)

	routes, err := p.routesFrom(mc, devName)
	if err != nil {
		return err
	}

	m, err := d.SpawnModule(device.ModuleSpec{
		Name:         p.prefixed(mc.Name),
		Source:       mc.Source,
		Services:     mc.Services,
		Port:         mc.Endpoint.Port,
		Next:         routes,
		MetricPrefix: p.name,
		Limits:       p.cfg.EffectiveLimits(mc.Name).ToScript(),
	})
	if err != nil {
		return err
	}
	p.modules[mc.Name] = m
	return nil
}

// routesFrom builds mc's outgoing routes as seen from device devName:
// same-device successors are addressed by name, the rest by their bound
// endpoint. Every successor must already be spawned. Callers hold p.mu (or,
// during Launch, own the pipeline exclusively).
func (p *Pipeline) routesFrom(mc *ModuleConfig, devName string) ([]device.Route, error) {
	var routes []device.Route
	for _, next := range mc.Next {
		dst := p.modules[next]
		if dst == nil {
			return nil, fmt.Errorf("core: internal: destination %q not yet spawned", next)
		}
		route := device.Route{Module: p.prefixed(next), Label: next}
		if p.plan.Placement[next] != devName {
			route.Address = dst.Addr().String()
		}
		routes = append(routes, route)
	}
	return routes, nil
}

// countRemoteEdges recomputes remoteEdges from the placement. Callers hold
// p.mu (or, during Launch, own the pipeline exclusively).
func (p *Pipeline) countRemoteEdges() {
	p.remoteEdges = 0
	for i := range p.cfg.Modules {
		mc := &p.cfg.Modules[i]
		for _, next := range mc.Next {
			if p.plan.Placement[next] != p.plan.Placement[mc.Name] {
				p.remoteEdges++
			}
		}
	}
}

func (p *Pipeline) prefixed(module string) string { return p.name + "." + module }

// Name reports the pipeline name.
func (p *Pipeline) Name() string { return p.name }

// PlannerName reports the placement strategy used.
func (p *Pipeline) PlannerName() string { return p.planner.Name() }

// Placement reports the module-to-device assignment.
func (p *Pipeline) Placement() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.plan.Placement))
	for k, v := range p.plan.Placement {
		out[k] = v
	}
	return out
}

// returnCredit gives back the admission slot of a frame that did not
// complete (refused by the entry module, or abandoned downstream).
func (p *Pipeline) returnCredit() { p.frameDone(0) }

// frameDone is a module's frame_done(): the frame's latency (0 when its
// capture time is unknown) joins the lane's recent completions, unless it
// was captured before the ring last restarted, and its admission slot goes
// back to the source. The cap clamp absorbs a window narrowed while frames
// were in flight.
func (p *Pipeline) frameDone(e2e time.Duration) {
	now := time.Now()
	p.creditMu.Lock()
	if e2e > 0 {
		p.tail.Observe(now.Add(-e2e), e2e)
	}
	if p.creditAvail < p.creditCap {
		p.creditAvail++
	}
	p.creditMu.Unlock()
}

// recentP99 is the p99 latency of the lane's last metrics.RecentTailLen
// completed frames (fewer while fewer exist, zero before the first).
func (p *Pipeline) recentP99() time.Duration {
	p.creditMu.Lock()
	tail := p.tail
	p.creditMu.Unlock()
	return tail.P99()
}

// forgetTail restarts the ring after the tuner narrows the window or grows a
// pool: the old tail and the frames still in flight describe a system that
// no longer exists, so recentP99 reads zero until newer frames complete.
func (p *Pipeline) forgetTail() {
	p.creditMu.Lock()
	p.tail.Restart(time.Now())
	p.creditMu.Unlock()
}

// takeCredit claims one admission slot, reporting whether one was free, how
// many are left and how many frames were already in flight.
func (p *Pipeline) takeCredit() (left, ahead int, ok bool) {
	p.creditMu.Lock()
	defer p.creditMu.Unlock()
	if p.creditAvail <= 0 {
		return 0, 0, false
	}
	ahead = max(p.creditCap-p.creditAvail, 0)
	p.creditAvail--
	return p.creditAvail, ahead, true
}

// ResizeCredits adjusts the flow-control window to n credits — the
// tuner's actuator when the source, not the services, is the bottleneck.
// Growth is effective immediately; shrinking narrows the cap and lets
// in-flight frames drain without reclaiming their credits early.
func (p *Pipeline) ResizeCredits(n int) error {
	if n < 1 {
		return fmt.Errorf("core: pipeline %q: credit window must be >= 1, got %d", p.name, n)
	}
	p.creditMu.Lock()
	defer p.creditMu.Unlock()
	if delta := n - p.creditCap; delta > 0 {
		p.creditAvail += delta
	} else if p.creditAvail > n {
		p.creditAvail = n
	}
	p.creditCap = n
	return nil
}

// Credits reports the current credit window cap.
func (p *Pipeline) Credits() int {
	p.creditMu.Lock()
	defer p.creditMu.Unlock()
	return p.creditCap
}

// CreditsAvail reports how many credits are currently unclaimed. Zero
// means the window is fully in flight — the next burst arrival drops.
func (p *Pipeline) CreditsAvail() int {
	p.creditMu.Lock()
	defer p.creditMu.Unlock()
	return p.creditAvail
}

// RunResult summarizes one pipeline run — the measurements behind the
// paper's Fig. 6 and Table 2.
type RunResult struct {
	// Pipeline and Planner identify the run.
	Pipeline string
	Planner  string
	// Duration is the measured wall-clock window.
	Duration time.Duration
	// Source reports captured/emitted/dropped frames at the camera.
	Source frame.SourceStats
	// Delivered is the number of frames that completed the pipeline.
	Delivered uint64
	// FPS is the end-to-end delivered frame rate (Table 2's metric).
	FPS float64
	// E2E is the capture-to-display latency distribution (Fig. 6 "Total
	// Duration").
	E2E metrics.Snapshot
	// Stages maps stage names to their latency distributions (Fig. 6
	// bars), as reported by module scripts via metric().
	Stages map[string]metrics.Snapshot
}

// String renders the result like the paper's tables.
func (r RunResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]: source %.1f fps -> delivered %.2f fps (%d frames, %d dropped at source), e2e %v\n",
		r.Pipeline, r.Planner, float64(r.Source.Captured)/r.Duration.Seconds(), r.FPS, r.Delivered,
		r.Source.Dropped, r.E2E.Mean.Round(time.Millisecond))
	names := make([]string, 0, len(r.Stages))
	for n := range r.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  stage %-16s %s\n", n, r.Stages[n])
	}
	return b.String()
}

// Run drives the source for the given duration and collects results. A
// pipeline can be Run repeatedly; metrics accumulate unless the cluster
// registry is reset between runs.
func (p *Pipeline) Run(ctx context.Context, d time.Duration) (RunResult, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return RunResult{}, fmt.Errorf("core: pipeline %q is closed", p.name)
	}
	if p.running {
		p.mu.Unlock()
		return RunResult{}, fmt.Errorf("core: pipeline %q is already running", p.name)
	}
	p.running = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.running = false
		p.mu.Unlock()
	}()

	p.PrimeCredits()

	runCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	start := time.Now()
	err := p.source.Run(runCtx, p.Offer)
	elapsed := time.Since(start)
	if err != nil {
		return RunResult{}, err
	}
	// Let in-flight frames drain before reading the meters.
	time.Sleep(150 * time.Millisecond)
	return p.collect(elapsed), nil
}

// PrimeCredits refills the admission pool to the plan's in-flight
// allowance — what Run does at window start. External drivers (the
// vpflood open-loop generator) call it once before their first Offer.
func (p *Pipeline) PrimeCredits() {
	p.creditMu.Lock()
	p.creditAvail = p.creditCap
	p.creditMu.Unlock()
}

// keyCapturedMS and keySeq are the keys of the numbers Offer's event body
// carries, interned once.
var keyCapturedMS, keySeq = unique.Make("captured_ms"), unique.Make("seq")

// Offer admits one captured frame if a flow-control credit is available,
// otherwise drops it at the source (§2.3: dropping happens at the
// beginning of the pipeline, never inside it). It is the source's emit
// callback, and the injection path open-loop load generators
// (internal/flood) drive in place of the built-in paced source. Offer
// never blocks; the frame must carry Captured (end-to-end latency is
// measured from it at the sink) and ownership transfers unconditionally —
// a rejected frame has already been released when Offer returns false.
func (p *Pipeline) Offer(f *frame.Frame) bool {
	left, ahead, ok := p.takeCredit()
	if !ok {
		// Dropped at the source: emit owns the frame, so recycle its
		// buffer here. (Once TryInject Puts it in the device store, the
		// store owns it and releases on eviction.)
		f.Release()
		p.cluster.Metrics().Meter("pipeline." + p.name + ".source_drops").Mark()
		return false
	}
	p.mu.Lock()
	entry, hops := p.entry, p.remoteEdges
	p.mu.Unlock()
	// Credits bound the frames in flight (§2.3), and an in-flight frame holds
	// one pixel buffer except across a remote edge, where the receiver may
	// have decoded its copy (on receipt, or where its pixels are first read)
	// before the sender's event ends and lets go of the original — one more
	// buffer per remote edge at the worst; a receiver that only forwards the
	// bytes the frame arrived with decodes nothing. So the most
	// this pipeline can still take from the pool is one buffer per unclaimed
	// credit, the one the source is holding when an offer is refused, and one
	// per remote edge — less the edges the frames ahead of this one may be
	// crossing right now, whose second buffer is then already out. The first
	// frame of a run has nothing ahead of it and stocks the whole demand;
	// after that the burst that fills the window — the source catching up
	// after a stall — allocates nothing, at whatever second of a run it comes.
	frame.Pool.Reserve(len(f.Pix), left+1+max(hops-ahead, 0))
	body := script.NewObjectSize(3) // room for the frame_ref
	body.SetNum(keyCapturedMS, float64(f.Captured.UnixNano())/1e6)
	body.SetNum(keySeq, float64(f.Seq))
	ok, err := entry.TryInject(body, f)
	if err != nil || !ok {
		p.returnCredit()
		return false
	}
	return true
}

// collect aggregates this pipeline's metrics from the cluster registry.
func (p *Pipeline) collect(elapsed time.Duration) RunResult {
	reg := p.cluster.Metrics()
	res := RunResult{
		Pipeline: p.name,
		Planner:  p.planner.Name(),
		Duration: elapsed,
		Source:   p.source.Stats(),
		Stages:   make(map[string]metrics.Snapshot),
	}

	var delivered uint64
	var rate float64
	for _, sink := range p.cfg.Sinks() {
		meter := reg.Meter("pipeline." + p.prefixed(sink) + ".frames_done")
		delivered += meter.Count()
		rate += meter.Rate()
		e2e := reg.Histogram("pipeline." + p.prefixed(sink) + ".e2e")
		if e2e.Count() > 0 {
			res.E2E = e2e.Snapshot()
		}
	}
	res.Delivered = delivered
	res.FPS = rate

	stagePrefix := "stage." + p.name + "."
	for _, name := range reg.HistogramNames() {
		if strings.HasPrefix(name, stagePrefix) {
			//vpvet:allow metername re-reads an instrument already registered under this name
			res.Stages[strings.TrimPrefix(name, stagePrefix)] = reg.Histogram(name).Snapshot()
		}
	}
	return res
}

// Modules lists the deployed module names (unprefixed).
func (p *Pipeline) Modules() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.modules))
	for name := range p.modules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Module returns a deployed module instance by its config name.
func (p *Pipeline) Module(name string) (*device.Module, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.modules[name]
	return m, ok
}

// UpdateModule hot-swaps a module's code in the running pipeline (live
// redeployment, paper §7). Placement, routing and flow control are
// untouched; the module's encapsulated state restarts fresh.
func (p *Pipeline) UpdateModule(name, source string) error {
	m, ok := p.Module(name)
	if !ok {
		return fmt.Errorf("core: pipeline %q has no module %q", p.name, name)
	}
	// pipetype: a swap must not break an edge contract the rest of the DAG
	// still relies on (shapecheck.go). Only error-severity findings block.
	if err := checkShapeUpdate(p.cfg, name, source); err != nil {
		return err
	}
	return m.UpdateSource(source)
}

// MigrateModule moves a running module to another device — the live-
// migration half of self-healing. The old instance is quiesced (parked
// events drain, their flow-control credits return to the source), its
// PipeScript global state is snapshotted, and a fresh instance spawns on
// the target with that state restored before its first event. Upstream
// modules' routes are repointed in place; no other module restarts.
func (p *Pipeline) MigrateModule(name, target string) error {
	if _, ok := p.cluster.Device(target); !ok {
		return fmt.Errorf("core: migrate %q: unknown device %q", name, target)
	}
	return p.respawnModule(name, target)
}

// RestartModule replaces a module in place on its current device — the
// recovery action for a sandbox kill. The replacement loads from the
// pipeline config's original source (discarding any hot-swapped code, the
// usual way hostile code arrived), and the old instance's global state is
// carried over only when its _PRESERVATION_VERSION matches the fresh
// code's — a mismatch starts clean rather than resurrecting a poisoned
// global.
func (p *Pipeline) RestartModule(name string) error {
	return p.respawnModule(name, "")
}

// respawnModule is the one routine behind migration and restart: quiesce
// the live instance, snapshot it, spawn its replacement on target (empty =
// the module's current device) and repoint the predecessors.
func (p *Pipeline) respawnModule(name, target string) error {
	mc, ok := p.cfg.Module(name)
	if !ok {
		return fmt.Errorf("core: pipeline %q has no module %q", p.name, name)
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("core: pipeline %q is closed", p.name)
	}
	if p.migrating {
		p.mu.Unlock()
		return fmt.Errorf("core: pipeline %q already has a migration in flight", p.name)
	}
	oldDev := p.plan.Placement[name]
	if target == "" {
		target = oldDev
	}
	// Resolve the new instance's outgoing routes against current
	// placement while we hold the lock.
	routes, err := p.routesFrom(mc, target)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.migrating = true
	old := p.modules[name]
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.migrating = false
		p.mu.Unlock()
	}()

	d, ok := p.cluster.Device(target)
	if !ok {
		return fmt.Errorf("core: respawn %q: device %q is gone", name, target)
	}

	// Quiesce: after Close returns the event loop is gone, parked events
	// have handed their credits back, and the script context is ours to
	// snapshot.
	oldAddr := old.Addr().String()
	old.Close()
	snap := old.SnapshotState()
	if target == oldDev {
		// Same device: the name must be free before the replacement spawns.
		d.DropModule(p.prefixed(name))
	}

	newM, err := d.SpawnModule(device.ModuleSpec{
		Name:         p.prefixed(name),
		Source:       mc.Source,
		Services:     mc.Services,
		Next:         routes,
		MetricPrefix: p.name,
		Restore:      snap,
		Limits:       p.cfg.EffectiveLimits(name).ToScript(),
	})
	if err != nil {
		return fmt.Errorf("core: respawning %q on %q: %w", name, target, err)
	}
	newM.SetFrameDone(p.frameDone)
	newM.SetFrameAbandoned(p.returnCredit)

	// Commit — unless the pipeline closed while we were spawning, in
	// which case the replacement must die here or its goroutines leak.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		newM.Close()
		d.DropModule(p.prefixed(name))
		return fmt.Errorf("core: pipeline %q closed during respawn of %q", p.name, name)
	}
	p.modules[name] = newM
	p.plan.Placement[name] = target
	p.countRemoteEdges()
	if p.cfg.Source.FirstModule == name {
		p.entry = newM
	}
	// Repoint every predecessor's edge at the new instance (a same-device
	// respawn still moved the endpoint: fresh ephemeral bind).
	type repoint struct {
		m *device.Module
		r device.Route
	}
	var repoints []repoint
	for i := range p.cfg.Modules {
		pred := &p.cfg.Modules[i]
		for _, next := range pred.Next {
			if next != name {
				continue
			}
			route := device.Route{Module: p.prefixed(name), Label: name}
			if p.plan.Placement[pred.Name] != target {
				route.Address = newM.Addr().String()
			}
			repoints = append(repoints, repoint{m: p.modules[pred.Name], r: route})
		}
	}
	p.mu.Unlock()

	for _, rp := range repoints {
		rp.m.UpdateRoute(name, rp.r)
		// A predecessor mid-Send to the dead instance would otherwise spin
		// in the push's reconnect loop until its deadline, holding a frame
		// credit (and its whole event loop) hostage the entire time.
		rp.m.AbortPush(oldAddr)
	}
	// The dead device must not re-close the migrated-away instance (it
	// already is closed) nor hold the name.
	if od, ok := p.cluster.Device(oldDev); ok && oldDev != target {
		od.DropModule(p.prefixed(name))
	}
	p.cluster.Metrics().Meter("pipeline." + p.name + ".recoveries").Mark()
	return nil
}

// KilledModules lists modules (by config name, sorted) whose sandbox
// killed them after repeated budget breaches — the supervisor's restart
// work list.
func (p *Pipeline) KilledModules() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for name, m := range p.modules {
		if m.Killed() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// modulesOn lists (sorted) the modules currently placed on dev.
func (p *Pipeline) modulesOn(dev string) []string {
	placement := p.Placement()
	var out []string
	for _, mod := range p.Modules() {
		if placement[mod] == dev {
			out = append(out, mod)
		}
	}
	return out
}

// FailOver migrates every module this pipeline had on a dead device,
// re-running the launch planner over the surviving devices (the caller
// marks the device down first, which removes it from DeviceNames and so
// from the new plan). It returns the migrated module names in order. An
// orphan that cannot move — pinned to the dead device, or its migration
// failed — does not strand the orphans after it; the error names it.
func (p *Pipeline) FailOver(dead string) ([]string, error) {
	orphans := p.modulesOn(dead)
	if len(orphans) == 0 {
		return nil, nil
	}
	plan, err := p.planner.Plan(&p.cfg, p.cluster)
	if err != nil {
		return nil, fmt.Errorf("core: re-planning %q after %s died: %w", p.name, dead, err)
	}
	// Live-migrate each orphan, in sorted order, to its device in the new
	// plan. A failed migration leaves its module where it was without
	// holding back the rest; the failures come back joined.
	var migrated []string
	var errs []error
	for _, mod := range orphans {
		to := plan.Placement[mod]
		if to == "" || to == dead {
			continue
		}
		if err := p.MigrateModule(mod, to); err != nil {
			errs = append(errs, err)
			continue
		}
		migrated = append(migrated, mod)
	}
	err = errors.Join(errs...)
	if left := p.modulesOn(dead); len(left) > 0 {
		err = errors.Join(err, fmt.Errorf("core: re-plan of %q left %v on dead device %q", p.name, left, dead))
	}
	return migrated, err
}

// Close tears the pipeline's modules down. Safe against a concurrent
// migration: the migration's commit step sees closed and tears its fresh
// module down instead of publishing it.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	mods := make([]*device.Module, 0, len(p.modules))
	for _, m := range p.modules {
		mods = append(mods, m)
	}
	p.mu.Unlock()
	for _, m := range mods {
		m.Close()
	}
}

// backgroundGray is the solid-source fill used when no scene is set.
var backgroundGray = color.RGBA{R: 40, G: 40, B: 40, A: 255}
