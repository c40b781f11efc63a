package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/flood"
	"videopipe/internal/frame"
	"videopipe/internal/services"
	"videopipe/internal/wire"
)

const (
	// prerollDur is the open-loop warm-up on the workload's own schedule.
	// Its frames are excluded from every metric. It is a fixed part of
	// setup_s by design: set-up then sits near 2.1-2.6 s, where a quarter
	// second of added build work shows and a millisecond of jitter does not.
	prerollDur = 2 * time.Second
	// drainTimeout bounds the wait for in-flight frames after the window.
	drainTimeout = 3 * time.Second
	// startLead places the first scheduled instant slightly in the future
	// so offset-zero events are not late at launch.
	startLead = 20 * time.Millisecond
	// templatesPerLane pre-rendered frames are cycled per lane so rendering
	// never perturbs the schedule.
	templatesPerLane = 16
	// setupRepeats is how many times the untraced run builds the workload;
	// setup_s reports the median build plus the pre-roll.
	setupRepeats = 3
	// pollEvery is the traced run's gauge sampling period.
	pollEvery = 10 * time.Millisecond
)

// lane is one pipeline of the workload with its template frames.
type lane struct {
	pipe      *core.Pipeline
	modules   []string
	templates []*frame.Frame
}

// key names module mod of the lane in the cluster's meter registry.
func (ln *lane) key(mod string) string { return ln.pipe.Name() + "." + mod }

// rig is a built workload: a fresh cluster with every lane launched,
// credits primed and templates rendered.
type rig struct {
	cluster *core.Cluster
	lanes   []*lane
	// newCluster and launch are the build phase's two core spans.
	newCluster, launch time.Duration
}

func build(w workload) (*rig, error) {
	reg, err := w.registry()
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	t0 := time.Now()
	cluster, err := core.NewCluster(w.spec(), reg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	r := &rig{cluster: cluster, newCluster: time.Since(t0)}
	for i := 0; i < w.lanes; i++ {
		cfg := w.pipeline(fmt.Sprintf("lane%d", i))
		t1 := time.Now()
		p, err := cluster.Launch(cfg, nil)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("launch lane %d: %w", i, err)
		}
		r.launch += time.Since(t1)
		p.PrimeCredits()
		ln := &lane{pipe: p, modules: p.Modules()}
		r.lanes = append(r.lanes, ln)
		if ln.templates, err = renderTemplates(cfg.Source); err != nil {
			r.close()
			return nil, fmt.Errorf("render lane %d: %w", i, err)
		}
	}
	return r, nil
}

func (r *rig) close() {
	r.cluster.Close()
	for _, ln := range r.lanes {
		for _, t := range ln.templates {
			t.Release()
		}
		ln.templates = nil
	}
}

// renderTemplates samples the pipeline's own renderer across two seconds
// (one rep at 0.5 reps/s) so pose-bearing scenes show motion.
func renderTemplates(sc core.SourceConfig) ([]*frame.Frame, error) {
	render, err := core.SourceRenderer(sc)
	if err != nil {
		return nil, err
	}
	const span = 2 * time.Second
	frames := make([]*frame.Frame, 0, templatesPerLane)
	for k := 0; k < templatesPerLane; k++ {
		f, err := render(uint64(k), span*time.Duration(k)/templatesPerLane)
		if err != nil {
			for _, t := range frames {
				t.Release()
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// offer is one scheduled arrival of the merged, time-ordered schedule.
type offer struct {
	at   time.Duration
	lane int
	seq  uint64
}

// mergedSchedule draws every lane's arrivals with the lane's derived seed
// and merges them by time, so one injector goroutine can walk the whole
// fleet. It is a pure function of its arguments.
func mergedSchedule(w workload, seed int64, preroll, window time.Duration) ([]offer, error) {
	var out []offer
	for i := 0; i < w.lanes; i++ {
		offsets, err := laneOffsets(w, flood.PipelineSeed(seed, i), preroll, window)
		if err != nil {
			return nil, err
		}
		for k, off := range offsets {
			out = append(out, offer{at: off, lane: i, seq: uint64(k)})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].at != out[b].at {
			return out[a].at < out[b].at
		}
		return out[a].lane < out[b].lane
	})
	return out, nil
}

// laneOffsets is one lane's arrival schedule over pre-roll plus window,
// from flood.Generate. A uniform schedule is used as drawn. A Poisson
// schedule is conditioned on its count: the pre-roll and the window each
// get exactly rate x span arrivals, placed where the drawn process puts
// them relative to one another. (Given its count, a Poisson process on an
// interval is that many independent uniform points; rescaling the first
// n+1 drawn arrival times so the last lands on the interval's end gives
// exactly that law.) The bursts stay; the seed-to-seed swing in how many
// frames a window is offered, which goodput would otherwise inherit, goes.
func laneOffsets(w workload, seed int64, preroll, window time.Duration) ([]time.Duration, error) {
	if w.process != flood.Poisson {
		s, err := flood.Generate(w.process, w.rate, preroll+window, seed)
		return s.Offsets, err
	}
	nPre := int(w.rate*preroll.Seconds() + 0.5)
	nWin := int(w.rate*window.Seconds() + 0.5)
	need := nPre + nWin + 2
	// Twice the span needed on average, plus slack for short windows.
	s, err := flood.Generate(flood.Poisson, w.rate, 2*(preroll+window)+10*time.Second, seed)
	if err != nil {
		return nil, err
	}
	if len(s.Offsets) < need {
		return nil, fmt.Errorf("%s: drew %d arrivals, need %d", w.name, len(s.Offsets), need)
	}
	t := s.Offsets
	out := make([]time.Duration, 0, nPre+nWin)
	for j := 0; j < nPre; j++ {
		out = append(out, time.Duration(float64(t[j])/float64(t[nPre])*float64(preroll)))
	}
	base, span := t[nPre], t[nPre+nWin+1]-t[nPre]
	for j := 1; j <= nWin; j++ {
		out = append(out, preroll+time.Duration(float64(t[nPre+j]-base)/float64(span)*float64(window)))
	}
	return out, nil
}

// snapshot is every cumulative counter the harness reads at a window
// boundary; metrics are differences of two snapshots.
type snapshot struct {
	at time.Time
	// e2e and done hold, per (lane, module) in rig order, the e2e
	// histogram's observation count and the frames_done count.
	e2e  []int
	done []uint64
	// stage holds the observation counts of the Fig. 6 stage histograms.
	stage []int

	mem          runtime.MemStats
	cpu          time.Duration
	wireCopied   uint64
	poolHits     uint64
	poolMisses   uint64
	instructions uint64
	batches      uint64
	batchedReqs  uint64
}

// stageNames are the Fig. 6 stage histograms the fitness scripts report.
var stageNames = []string{"load_frame", "pose", "activity", "rep_count", "total", "display"}

func (r *rig) snapshot() snapshot {
	s := snapshot{at: time.Now()}
	reg := r.cluster.Metrics()
	for _, ln := range r.lanes {
		for _, mod := range ln.modules {
			k := ln.key(mod)
			s.e2e = append(s.e2e, int(reg.Histogram("pipeline."+k+".e2e").Count()))
			s.done = append(s.done, reg.Meter("pipeline."+k+".frames_done").Count())
			s.instructions += reg.Meter("script." + k + ".instructions").Count()
		}
		for _, st := range stageNames {
			s.stage = append(s.stage, int(reg.Histogram("stage."+ln.pipe.Name()+"."+st).Count()))
		}
	}
	if pool := r.posePool(); pool != nil {
		s.batches, s.batchedReqs = pool.Batches(), pool.BatchedRequests()
	}
	s.wireCopied = wire.BytesCopied()
	s.poolHits, s.poolMisses = frame.PoolStats()
	s.cpu = processCPU()
	runtime.ReadMemStats(&s.mem)
	return s
}

// posePool is the shared pose-detector pool, or nil on serviceless
// workloads.
func (r *rig) posePool() *services.Pool {
	pool, err := r.cluster.Pool(services.PoseDetector)
	if err != nil {
		return nil
	}
	return pool
}

// processCPU is user+system CPU time consumed by this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totals are whole-run tallies (pre-roll included) for the conservation
// checks and the failure share.
type totals struct {
	offered, admitted, refused int
	completed, abandoned       uint64
	moduleErrors, rpcTimeouts  uint64
	atDisplay                  uint64
}

// outcome is one run of one workload.
type outcome struct {
	workload string
	seed     int64
	window   time.Duration // measured window as it actually elapsed
	setup    time.Duration // median build + pre-roll as it elapsed
	totals   totals
	// winOffered and winRefused count Offer calls inside the window.
	winOffered, winRefused int
	// samples are the window's e2e latencies, ascending.
	samples []time.Duration
	// endToEnd and layer hold metric values by name.
	endToEnd map[string]float64
	layer    map[string]float64
	problems []string
}

// runConfig is one run's protocol.
type runConfig struct {
	seed int64
	// preroll frames are injected on the workload's own schedule and
	// excluded from every metric; window is the measured span after it.
	preroll, window time.Duration
	// builds is how many times the build phase runs (the last rig is the
	// one measured); setup_s reports the median.
	builds int
	// tr is nil for the untraced run.
	tr *tracer
}

// runWorkload builds the workload, pre-rolls, measures one window and
// drains.
func runWorkload(w workload, rc runConfig) (*outcome, error) {
	seed, tr := rc.seed, rc.tr
	out := &outcome{workload: w.name, seed: seed, endToEnd: map[string]float64{}, layer: map[string]float64{}}
	root := tr.begin(0, "harness", "run")
	defer tr.end(root)

	var r *rig
	var builds []time.Duration
	buildSpan := tr.begin(root, "harness", "build")
	for i := 0; i < rc.builds; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = build(w); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		builds = append(builds, time.Since(t0))
	}
	tr.end(buildSpan)
	defer r.close()
	tr.add(buildSpan, "core", "core.new_cluster", r.newCluster)
	tr.add(buildSpan, "core", "core.launch", r.launch)

	sched, err := mergedSchedule(w, seed, rc.preroll, rc.window)
	if err != nil {
		return nil, err
	}

	var tuner *core.Tuner
	if w.tune {
		tuner = core.NewTuner(r.cluster, core.TunerConfig{Seed: seed})
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); tuner.Run(ctx) }()
		defer func() { cancel(); wg.Wait() }()
	}

	// The repeated builds leave garbage; start every run from a swept heap.
	runtime.GC()

	lateness := make([]time.Duration, 0, len(sched))
	start := time.Now().Add(startLead)
	boundary := start.Add(rc.preroll)
	end := boundary.Add(rc.window)

	var a, b snapshot
	var poll *poller
	phase := tr.begin(root, "harness", "preroll")
	measuring := false
	for _, ev := range sched {
		due := start.Add(ev.at)
		if !measuring && ev.at >= rc.preroll {
			// Everything offered so far is pre-roll; nothing of the
			// window has been offered yet.
			sleepUntil(boundary)
			tr.end(phase)
			a = r.snapshot()
			if tr != nil {
				poll = startPoller(r)
			}
			phase = tr.begin(root, "harness", "window")
			measuring = true
		}
		sleepUntil(due)
		ln := r.lanes[ev.lane]
		f := ln.templates[ev.seq%templatesPerLane].Clone()
		// Latency is charged from the scheduled instant: a frame that
		// waited to be injected pays for the wait.
		f.Captured = due
		f.Seq = ev.seq
		sp := tr.begin(phase, "core", "core.offer")
		ok := ln.pipe.Offer(f)
		tr.end(sp)
		out.totals.offered++
		if ok {
			out.totals.admitted++
		} else {
			out.totals.refused++
		}
		if measuring {
			out.winOffered++
			if !ok {
				out.winRefused++
			}
			lateness = append(lateness, max(time.Since(due), 0))
		}
	}
	if !measuring {
		return nil, fmt.Errorf("%s: schedule has no event after the pre-roll", w.name)
	}
	sleepUntil(end)
	b = r.snapshot()
	tr.end(phase)
	var polled pollMeans
	if poll != nil {
		polled = poll.stop()
	}

	drain := tr.begin(root, "harness", "drain")
	r.drain(&out.totals)
	tr.end(drain)

	out.window = b.at.Sub(a.at)
	out.setup = median(builds) + a.at.Sub(start) + startLead
	out.samples = r.windowSamples(a, b)
	r.measure(w, out, a, b)
	r.measureLayers(out, a, b, polled, lateness, tuner)
	r.check(w, out)
	return out, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// drain waits until every admitted frame completed or was abandoned, or
// the timeout lapses, then records the whole-run tallies.
func (r *rig) drain(t *totals) {
	reg := r.cluster.Metrics()
	tally := func() {
		t.completed, t.abandoned, t.moduleErrors, t.atDisplay = 0, 0, 0, 0
		for _, ln := range r.lanes {
			for _, mod := range ln.modules {
				k := ln.key(mod)
				n := reg.Meter("pipeline." + k + ".frames_done").Count()
				t.completed += n
				if mod == "display" {
					t.atDisplay += n
				}
				t.abandoned += reg.Meter("module." + k + ".abandoned").Count()
				t.moduleErrors += reg.Meter("module." + k + ".errors").Count()
			}
		}
	}
	deadline := time.Now().Add(drainTimeout)
	for tally(); t.completed+t.abandoned < uint64(t.admitted) && time.Now().Before(deadline); tally() {
		time.Sleep(10 * time.Millisecond)
	}
	t.rpcTimeouts = reg.Meter("rpc.timeouts").Count()
}

// windowSamples slices every module's e2e reservoir at the two boundary
// counts and merges the slices, ascending. The reservoir is in observation
// order until it fills, which no window here approaches.
func (r *rig) windowSamples(a, b snapshot) []time.Duration {
	reg := r.cluster.Metrics()
	var out []time.Duration
	i := 0
	for _, ln := range r.lanes {
		for _, mod := range ln.modules {
			all := reg.Histogram("pipeline." + ln.key(mod) + ".e2e").Samples()
			out = append(out, sliceWindow(all, a.e2e[i], b.e2e[i])...)
			i++
		}
	}
	slices.Sort(out)
	return out
}

// frames is the divisor of every per-frame ratio: the frames admitted
// inside the window (at least 1). Work between the two snapshots belongs
// to about that many frames — the tails of the pre-roll's last frames
// replace the tails of the window's last ones — and unlike the count of
// completions between the snapshots it does not flip by one when a
// completion lands a millisecond either side of a boundary.
func (o *outcome) frames() float64 {
	return float64(max(o.winOffered-o.winRefused, 1))
}

// measure fills the end-to-end metrics from the two boundary snapshots.
func (r *rig) measure(w workload, out *outcome, a, b snapshot) {
	onTime := sort.Search(len(out.samples), func(i int) bool { return out.samples[i] > w.deadline })
	frames := out.frames()
	out.endToEnd["goodput_eps"] = float64(onTime) / out.window.Seconds()
	out.endToEnd["alloc_kb_per_frame"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1024 / frames
	out.endToEnd["mallocs_per_frame"] = float64(b.mem.Mallocs-a.mem.Mallocs) / frames
	out.endToEnd["setup_s"] = out.setup.Seconds()
}

// measureLayers fills the per-layer metrics the live run can see from
// outside: registry instruments, public gauges and process counters. The
// probe metrics (probes.go) are added by the caller.
func (r *rig) measureLayers(out *outcome, a, b snapshot, polled pollMeans, lateness []time.Duration, tuner *core.Tuner) {
	frames := out.frames()
	l := out.layer

	l["script.instr_per_frame"] = float64(b.instructions-a.instructions) / frames
	l["wire.copied_kb_per_frame"] = float64(b.wireCopied-a.wireCopied) / 1024 / frames
	hits, misses := b.poolHits-a.poolHits, b.poolMisses-a.poolMisses
	l["frame.pool_hit_frac"] = float64(hits) / float64(max(hits+misses, 1))

	l["services.wait_p50_ms"], l["services.wait_p95_ms"] = 0, 0
	l["services.batch_mean"], l["services.pool_size_end"] = 0, 0
	if pool := r.posePool(); pool != nil {
		ws := pool.WaitStats()
		l["services.wait_p50_ms"], l["services.wait_p95_ms"] = ms(ws.P50), ms(ws.P95)
		if n := b.batches - a.batches; n > 0 {
			l["services.batch_mean"] = float64(b.batchedReqs-a.batchedReqs) / float64(n)
		}
		l["services.pool_size_end"] = float64(pool.Size())
	}
	l["services.queue_depth_mean"] = polled.queueDepth
	l["services.busy_workers_mean"] = polled.busyWorkers

	reg := r.cluster.Metrics()
	for si, st := range stageNames {
		var merged []time.Duration
		for li, ln := range r.lanes {
			i := li*len(stageNames) + si
			all := reg.Histogram("stage." + ln.pipe.Name() + "." + st).Samples()
			merged = append(merged, sliceWindow(all, a.stage[i], b.stage[i])...)
		}
		slices.Sort(merged)
		l["device.stage."+st+"_ms"] = ms(quantile(merged, 0.5))
	}
	var breaches uint64
	for _, ln := range r.lanes {
		for _, mod := range ln.modules {
			breaches += reg.Meter("script." + ln.key(mod) + ".breaches").Count()
		}
	}
	l["device.abandoned"] = float64(out.totals.abandoned)
	l["device.breaches"] = float64(breaches)

	l["core.e2e_p50_ms"] = ms(quantile(out.samples, 0.50))
	l["core.e2e_p90_ms"] = ms(quantile(out.samples, 0.90))
	l["core.e2e_p99_ms"] = ms(quantile(out.samples, 0.99))
	l["core.source_drop_frac"] = float64(out.winRefused) / float64(max(out.winOffered, 1))
	l["core.inflight_mean"] = polled.inflight
	var credits int
	for _, ln := range r.lanes {
		credits += ln.pipe.Credits()
	}
	l["core.credits_cap_end"] = float64(credits)
	l["core.tuner_actions"] = 0
	if tuner != nil {
		l["core.tuner_actions"] = float64(len(tuner.Journal()))
	}
	l["core.new_cluster_ms"] = ms(r.newCluster)
	l["core.launch_ms"] = ms(r.launch)

	slices.Sort(lateness)
	l["gen.lateness_p99_ms"] = ms(quantile(lateness, 0.99))
	l["proc.cpu_ms_per_frame"] = ms(b.cpu-a.cpu) / frames
	l["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	l["proc.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	l["proc.heap_peak_mb"] = polled.heapPeak / (1 << 20)
}

// check runs the output checks; any failure lands in out.problems.
func (r *rig) check(w workload, out *outcome) {
	t := out.totals
	fail := func(format string, args ...any) {
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	if t.offered != t.admitted+t.refused {
		fail("offered %d != admitted %d + refused %d", t.offered, t.admitted, t.refused)
	}
	if uint64(t.admitted) != t.completed+t.abandoned {
		fail("admitted %d != completed %d + abandoned %d after drain", t.admitted, t.completed, t.abandoned)
	}
	if t.abandoned != 0 || t.moduleErrors != 0 {
		fail("%d frames abandoned, %d module errors (a sink assertion threw or a handler failed)", t.abandoned, t.moduleErrors)
	}
	if t.rpcTimeouts != 0 {
		fail("rpc.timeouts = %d", t.rpcTimeouts)
	}
	for _, name := range r.cluster.DeviceNames() {
		d, _ := r.cluster.Device(name)
		for svc, st := range d.BreakerStates() {
			if st != services.BreakerClosed {
				fail("breaker for %s on %s is %s", svc, name, st)
			}
		}
	}
	for _, ln := range r.lanes {
		if killed := ln.pipe.KilledModules(); len(killed) > 0 {
			fail("%s: killed modules %v", ln.pipe.Name(), killed)
		}
	}
	if w.displayShare > 0 && float64(t.atDisplay) < w.displayShare*float64(t.completed) {
		fail("only %d of %d completions at display", t.atDisplay, t.completed)
	}
	if len(out.samples) == 0 {
		fail("no frame completed inside the window")
	}
}

// failed is the failure share's numerator: admitted frames that never
// completed (abandoned or still in flight after drain) plus one per
// failed output check. Source refusals are designed shedding (paper §2.3)
// and are charged to goodput_eps instead.
func (o *outcome) failed() int {
	lost := o.totals.admitted - int(o.totals.completed)
	return max(lost, 0) + len(o.problems)
}

// pollMeans are the traced run's polled gauge averages over the window.
type pollMeans struct {
	inflight, queueDepth, busyWorkers, heapPeak float64
}

// poller samples public gauges every pollEvery on its own goroutine.
type poller struct {
	stopCh chan struct{}
	done   chan pollMeans
}

func startPoller(r *rig) *poller {
	p := &poller{stopCh: make(chan struct{}), done: make(chan pollMeans, 1)}
	pool := r.posePool()
	go func() {
		var sum pollMeans
		var n float64
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stopCh:
				if n > 0 {
					sum.inflight /= n
					sum.queueDepth /= n
					sum.busyWorkers /= n
				}
				p.done <- sum
				return
			case <-tick.C:
				n++
				for _, ln := range r.lanes {
					sum.inflight += float64(ln.pipe.Credits() - ln.pipe.CreditsAvail())
				}
				if pool != nil {
					sum.queueDepth += float64(pool.QueueDepth())
					sum.busyWorkers += float64(pool.BusyWorkers())
				}
				sum.heapPeak = max(sum.heapPeak, heapInUse())
			}
		}
	}()
	return p
}

func (p *poller) stop() pollMeans {
	close(p.stopCh)
	return <-p.done
}

// sliceWindow returns all[from:to], clamped to the reservoir's length.
func sliceWindow(all []time.Duration, from, to int) []time.Duration {
	to = min(to, len(all))
	from = min(from, to)
	return all[from:to]
}

// quantile is the q-quantile of ascending samples with linear
// interpolation between ranks (the definition metrics.Histogram uses);
// zero when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
