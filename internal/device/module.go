package device

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/script"
	"videopipe/internal/wire"
)

// DefaultMaxBreaches is how many consecutive budget breaches a module
// survives before the runtime kills it (spec.MaxBreaches overrides). A
// successful event resets the count, so an occasional expensive event is
// tolerated while a wedged module converges to a kill in K events.
const DefaultMaxBreaches = 3

// Route is one outgoing DAG edge from a module: the destination module
// name and where it lives. An empty Address means the destination is
// hosted on the same device and messages are handed over in process.
type Route struct {
	// Module is the destination module's spawned (possibly
	// pipeline-prefixed) name.
	Module string
	// Label is the name module code uses in call_module; empty means the
	// same as Module.
	Label string
	// Address locates the destination's inbound endpoint; empty means the
	// destination is on this device.
	Address string
}

// ModuleSpec describes one module to spawn on a device, derived from the
// pipeline configuration (paper Listing 1).
type ModuleSpec struct {
	// Name identifies the module within its pipeline.
	Name string
	// Source is the module's PipeScript code. It may define init() and
	// must define event_received(message).
	Source string
	// Services lists the services the module is allowed to call — the
	// config's `service:` field.
	Services []string
	// Port is the bind port of the module's inbound endpoint (0 =
	// ephemeral).
	Port int
	// Next lists the outgoing edges — the config's `next_module` field,
	// resolved to routes by the deployment planner.
	Next []Route
	// MetricPrefix namespaces metric() observations (set to the pipeline
	// name by the core runtime so concurrent pipelines don't mix).
	MetricPrefix string
	// Restore, when non-nil, is applied to the module's script context
	// after init() runs and before the first event — the live-migration
	// path carries the predecessor's global state here. It is only applied
	// when its Version matches the new code's _PRESERVATION_VERSION;
	// otherwise the state is discarded and the module starts fresh.
	Restore *script.Snapshot
	// Limits is the sandbox resource budget enforced on the module's
	// script context (zero fields are unlimited; the core runtime fills in
	// cluster defaults before spawning).
	Limits script.Limits
	// MaxBreaches overrides DefaultMaxBreaches (0 = default).
	MaxBreaches int
}

// event is one unit of work for a module: a message body plus an optional
// frame already resident in the device store (the runtime passes frames by
// reference id, paper §3). The body is a script value the event owns
// outright — cloned at send by a local sender, scanned from the wire for a
// remote one, converted once from a Go-side source's map — so the event
// loop hands it to event_received as is.
type event struct {
	body    *script.Object
	frameID uint64
}

// Module is a running module instance: an isolated script context fed by a
// single event loop, mirroring one Duktape context per module.
type Module struct {
	dev  *Device
	spec ModuleSpec

	ctx    *script.Context
	pull   *wire.Pull
	events chan event
	swaps  chan *script.Context
	done   chan struct{}
	wg     sync.WaitGroup

	allowed map[string]bool
	routeMu sync.RWMutex
	routes  map[string]Route
	pushMu  sync.Mutex
	pushes  map[string]*wire.Push

	// onFrameDone is invoked when module code calls frame_done() — the
	// queue-free flow-control signal back to the pipeline source (§2.3).
	onFrameDone func()
	// onFrameAbandoned fires when an event that owned a frame errors out
	// before frame_done() was called, so the pipeline can reclaim the
	// credit instead of leaking it for the rest of the run.
	onFrameAbandoned func()

	// shapeObs, when set, sees every outbound call_module payload — the
	// debug-mode runtime half of the pipetype shape analysis. Atomic
	// because it is installed on live modules from another goroutine.
	shapeObs atomic.Pointer[ShapeObserver]

	// limits is the sandbox budget from the spec; breachLimit is the
	// resolved consecutive-breach kill threshold.
	limits      script.Limits
	breachLimit int
	// killed flips when consecutive budget breaches exhaust the breach
	// allowance; a killed module quarantines (abandons) every event until
	// the supervisor restarts it. Read from other goroutines via Killed().
	killed atomic.Bool

	// per-event state, touched only by the event loop goroutine.
	ownedRefs     []uint64
	currentFrame  *frame.Frame
	frameDoneSeen bool
	// consecBreaches counts back-to-back budget breaches; outputUsed
	// meters host-emitted bytes for the current event.
	consecBreaches int
	outputUsed     int64
	// encBuf and bodyBuf are the frame-encode and message-encode scratch
	// for outgoing remote edges, jsonEnc the encoder (with its key-sorting
	// scratch) that fills bodyBuf; all reused across events (event-loop
	// goroutine only).
	encBuf  []byte
	bodyBuf []byte
	jsonEnc script.JSONEncoder
	// stageHists caches the stage histogram behind each name module code
	// has passed to metric(), sparing the name concatenation and registry
	// walk per call. Event-loop goroutine only; dropped with the code that
	// chose the names (applySwap).
	stageHists map[string]*metrics.Histogram

	closeOnce sync.Once
	loadErr   error
}

// SpawnModule creates, loads and starts a module on the device.
func (d *Device) SpawnModule(spec ModuleSpec) (*Module, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("device: %s: module missing name", d.name)
	}
	if spec.Source == "" {
		return nil, fmt.Errorf("device: %s: module %q has no source", d.name, spec.Name)
	}
	d.mu.Lock()
	if _, dup := d.modules[spec.Name]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("device: %s: module %q already exists", d.name, spec.Name)
	}
	d.mu.Unlock()

	m := &Module{
		dev:  d,
		spec: spec,
		// Queue-free by design (§2.3): a single slot only decouples the
		// socket reader from the handler; flow control keeps it near-empty.
		events:  make(chan event, 1),
		swaps:   make(chan *script.Context, 1),
		done:    make(chan struct{}),
		allowed: make(map[string]bool, len(spec.Services)),
		routes:  make(map[string]Route, len(spec.Next)),
		pushes:  make(map[string]*wire.Push),
	}
	for _, s := range spec.Services {
		m.allowed[s] = true
	}
	for _, r := range spec.Next {
		label := r.Label
		if label == "" {
			label = r.Module
		}
		m.routes[label] = r
	}
	m.limits = spec.Limits
	m.breachLimit = spec.MaxBreaches
	if m.breachLimit <= 0 {
		m.breachLimit = DefaultMaxBreaches
	}

	m.ctx = script.NewContext()
	m.ctx.SetLimits(spec.Limits)
	m.bindHostAPI()
	if err := m.ctx.Load(spec.Source); err != nil {
		return nil, fmt.Errorf("device: %s: loading module %q: %w", d.name, spec.Name, err)
	}

	pull, err := wire.ListenPull(d.transport, spec.Port)
	if err != nil {
		return nil, fmt.Errorf("device: %s: module %q endpoint: %w", d.name, spec.Name, err)
	}
	m.pull = pull

	d.mu.Lock()
	d.modules[spec.Name] = m
	d.mu.Unlock()

	// init() runs on the event loop's goroutine before any events, so
	// module state never sees concurrent access.
	m.wg.Add(2)
	go m.receiveLoop()
	go m.eventLoop()
	return m, nil
}

// Module returns a hosted module by name.
func (d *Device) Module(name string) (*Module, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.modules[name]
	return m, ok
}

// Name reports the module name.
func (m *Module) Name() string { return m.spec.Name }

// Addr reports the module's inbound endpoint address.
func (m *Module) Addr() net.Addr { return m.pull.Addr() }

// UpdateRoute repoints one outgoing edge — how predecessors of a migrated
// module learn its new address without respawning.
func (m *Module) UpdateRoute(label string, r Route) {
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	m.routes[label] = r
}

// AbortPush tears down this module's outbound connection to address, if
// any. An in-flight Send to it fails on its next retry instead of
// spinning until its deadline — migration uses this to unwedge
// predecessors still pushing to a dead device, releasing the frame
// credits their blocked events hold.
func (m *Module) AbortPush(address string) {
	m.pushMu.Lock()
	p, ok := m.pushes[address]
	if ok {
		delete(m.pushes, address)
	}
	m.pushMu.Unlock()
	if ok {
		p.Close()
	}
}

// SnapshotState captures the module's PipeScript global state for
// migration. Only call after Close has returned: while the module runs,
// the event-loop goroutine owns the script context.
func (m *Module) SnapshotState() *script.Snapshot { return m.ctx.Snapshot() }

// SetFrameDone installs the flow-control callback fired by frame_done().
func (m *Module) SetFrameDone(fn func()) { m.onFrameDone = fn }

// SetFrameAbandoned installs the callback fired when an event carrying a
// frame fails before reaching frame_done().
func (m *Module) SetFrameAbandoned(fn func()) { m.onFrameAbandoned = fn }

// ShapeObserver receives each outbound call_module payload before wire
// conversion: target is the destination module, payload the raw second
// argument (nil for one-argument calls). Used by the debug-mode runtime
// shape recorder to validate the static shape inference against traffic.
type ShapeObserver func(target string, payload script.Value)

// SetShapeObserver installs (or, with nil, clears) the per-emission
// payload observer. Safe to call on a running module.
func (m *Module) SetShapeObserver(fn ShapeObserver) {
	if fn == nil {
		m.shapeObs.Store(nil)
		return
	}
	m.shapeObs.Store(&fn)
}

// shapeObserver returns the installed observer, or nil.
func (m *Module) shapeObserver() ShapeObserver {
	if p := m.shapeObs.Load(); p != nil {
		return *p
	}
	return nil
}

// Inject delivers an event directly from Go — how the video source (a
// camera, not a script) feeds the first module. The frame, if any, is
// stored in the device store and owned by the receiving event; the body is
// converted here, once, and the caller keeps its map.
func (m *Module) Inject(ctx context.Context, body map[string]any, f *frame.Frame) error {
	ev := event{body: script.FromGo(body).(*script.Object)}
	if f != nil {
		id, err := m.dev.store.Put(f)
		if err != nil {
			// The store never took it, so the frame is still ours to
			// recycle: ownership transferred to Inject unconditionally.
			f.Release()
			return fmt.Errorf("device: inject into %s: %w", m.spec.Name, err)
		}
		ev.frameID = id
	}
	select {
	case m.events <- ev:
		return nil
	case <-m.done:
		return fmt.Errorf("device: module %s is closed", m.spec.Name)
	case <-ctx.Done():
		if ev.frameID != 0 {
			m.dev.store.Release(ev.frameID)
		}
		return ctx.Err()
	}
}

// TryInject is Inject without blocking: it reports false when the module
// is busy (no credit) — the source-side drop point of the queue-free
// design.
func (m *Module) TryInject(body map[string]any, f *frame.Frame) (bool, error) {
	ev := event{body: script.FromGo(body).(*script.Object)}
	if f != nil {
		id, err := m.dev.store.Put(f)
		if err != nil {
			f.Release()
			return false, fmt.Errorf("device: inject into %s: %w", m.spec.Name, err)
		}
		ev.frameID = id
	}
	select {
	case m.events <- ev:
		return true, nil
	case <-m.done:
		if ev.frameID != 0 {
			m.dev.store.Release(ev.frameID)
		}
		return false, fmt.Errorf("device: module %s is closed", m.spec.Name)
	default:
		if ev.frameID != 0 {
			m.dev.store.Release(ev.frameID)
		}
		return false, nil
	}
}

// receiveLoop decodes inbound wire messages into events.
func (m *Module) receiveLoop() {
	defer m.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-m.done
		cancel()
	}()
	for {
		msg, err := m.pull.Recv(ctx)
		if err != nil {
			return
		}
		ev, err := m.decodeWireEvent(msg)
		// JSON and both codecs copy out of the parts, so the body buffer
		// can go back to the pool before the event is even queued.
		carriedFrame := len(msg.Part(1)) > 0
		msg.Release()
		if err != nil {
			m.dev.reg.Meter("module." + m.spec.Name + ".decode_errors").Mark()
			if carriedFrame {
				// The source spent a credit admitting this frame; an event
				// that dies here would otherwise never give it back.
				m.abandonCredit()
			}
			continue
		}
		select {
		case m.events <- ev:
		case <-m.done:
			if ev.frameID != 0 {
				m.abandonFrame(ev.frameID)
			}
			return
		}
	}
}

// abandonFrame releases a frame reference whose event will never reach
// frame_done() and hands its flow-control credit back to the source —
// the close/drain counterpart of the error path in handleEvent.
func (m *Module) abandonFrame(id uint64) {
	m.dev.store.Release(id)
	m.abandonCredit()
}

// abandonCredit returns the flow-control credit of a frame that will never
// reach frame_done(), so a fault burst cannot starve the source.
func (m *Module) abandonCredit() {
	if m.onFrameAbandoned != nil {
		m.dev.reg.Meter("module." + m.spec.Name + ".abandoned").Mark()
		m.onFrameAbandoned()
	}
}

func (m *Module) decodeWireEvent(msg wire.Message) (event, error) {
	body, err := script.ParseJSONFields(msg.Part(0))
	if err != nil {
		return event{}, fmt.Errorf("device: module %s: bad message body: %w", m.spec.Name, err)
	}
	ev := event{body: &script.Object{Fields: body}}
	if len(msg.Part(1)) > 0 {
		f, err := m.dev.codec.Decode(msg.Part(1))
		if err != nil {
			return event{}, fmt.Errorf("device: module %s: bad frame payload: %w", m.spec.Name, err)
		}
		id, err := m.dev.store.Put(f)
		if err != nil {
			f.Release()
			return event{}, err
		}
		ev.frameID = id
	}
	return ev, nil
}

// eventLoop runs init() then serially applies events to the script
// context.
func (m *Module) eventLoop() {
	defer m.wg.Done()
	if m.ctx.Has("init") {
		if _, err := m.ctx.Call("init"); err != nil {
			m.loadErr = err
			m.dev.reg.Meter("module." + m.spec.Name + ".errors").Mark()
		}
	}
	if m.spec.Restore != nil {
		// Migration/restart: overlay the predecessor's global state on top
		// of whatever init() just set up — but only when the preserved
		// state's version matches the code now running. A mismatch means
		// the state shape changed (or a hostile swap poisoned it); starting
		// fresh is the safe outcome.
		if m.spec.Restore.Version() == m.ctx.PreservationVersion() {
			m.ctx.Restore(m.spec.Restore)
		} else {
			m.dev.reg.Meter("module." + m.spec.Name + ".restore_discarded").Mark()
		}
	}
	for {
		select {
		case <-m.done:
			return
		case ctx := <-m.swaps:
			m.applySwap(ctx)
		case ev := <-m.events:
			m.handleEvent(ev)
		}
	}
}

// applySwap replaces the script context between events — the hot-update
// path. Module state resets (the new code's top level ran at parse time);
// init() runs on the fresh context before the next event.
func (m *Module) applySwap(ctx *script.Context) {
	m.ctx = ctx
	m.stageHists = nil
	if ctx.Has("init") {
		if _, err := ctx.Call("init"); err != nil {
			m.dev.reg.Meter("module." + m.spec.Name + ".errors").Mark()
		}
	}
	m.dev.reg.Meter("module." + m.spec.Name + ".updates").Mark()
}

// UpdateSource hot-swaps the module's code without disturbing its
// endpoint, routes or in-flight traffic — the live-redeployment half of
// the paper's "automatic deployment" future work. The new source is parsed
// and loaded off to the side; on failure the running module is untouched.
// The swap takes effect between events; module state starts fresh.
func (m *Module) UpdateSource(source string) error {
	if source == "" {
		return fmt.Errorf("device: module %s: empty source", m.spec.Name)
	}
	ctx := script.NewContext()
	ctx.SetLimits(m.limits)
	m.bindHostAPIInto(ctx)
	if err := ctx.Load(source); err != nil {
		return fmt.Errorf("device: updating module %s: %w", m.spec.Name, err)
	}
	select {
	case m.swaps <- ctx:
		return nil
	case <-m.done:
		return fmt.Errorf("device: module %s is closed", m.spec.Name)
	default:
		return fmt.Errorf("device: module %s already has an update pending", m.spec.Name)
	}
}

// Killed reports whether the sandbox killed this module after exhausting
// its breach allowance. A killed module abandons every event (credits flow
// back to the source) until the supervisor replaces it.
func (m *Module) Killed() bool { return m.killed.Load() }

func (m *Module) handleEvent(ev event) {
	// A killed module is quarantined: events are abandoned immediately so
	// their frame credits return to the source while the supervisor
	// arranges the restart.
	if m.killed.Load() {
		if ev.frameID != 0 {
			m.abandonFrame(ev.frameID)
		}
		return
	}

	// A paused device (chaos reboot) holds the event until Resume; the
	// single-slot channel upstream means flow control sees the stall and
	// the source drops frames instead of queueing.
	for {
		ch := m.dev.pauseGate()
		if ch == nil {
			break
		}
		select {
		case <-ch:
		case <-m.done:
			if ev.frameID != 0 {
				m.abandonFrame(ev.frameID)
			}
			return
		}
	}

	start := time.Now()
	m.ownedRefs = m.ownedRefs[:0]
	m.currentFrame = nil
	m.frameDoneSeen = false
	if ev.frameID != 0 {
		m.ownedRefs = append(m.ownedRefs, ev.frameID)
		if f, err := m.dev.store.Get(ev.frameID); err == nil {
			m.currentFrame = f
		}
		ev.body.Set(frameRefKey, float64(ev.frameID))
	}

	m.outputUsed = 0
	_, err := m.ctx.Call("event_received", ev.body)
	// Per-event interpreter instruction count — the runtime half of the
	// pipecost validation loop (static bound >= this) and the counter the
	// sandbox instruction budget is enforced against.
	m.dev.reg.Meter("script." + m.spec.Name + ".instructions").MarkN(uint64(m.ctx.LastInstructions()))
	if err != nil {
		m.dev.reg.Meter("module." + m.spec.Name + ".errors").Mark()
		// The frame this event owned will never reach frame_done();
		// return its credit so the source is not starved forever.
		if ev.frameID != 0 && !m.frameDoneSeen {
			m.abandonCredit()
		}
		var be *script.BudgetError
		if errors.As(err, &be) {
			m.dev.reg.Meter("script." + m.spec.Name + ".breaches").Mark()
			m.consecBreaches++
			if m.consecBreaches >= m.breachLimit && !m.killed.Load() {
				m.killed.Store(true)
				m.dev.reg.Meter("script." + m.spec.Name + ".killed").Mark()
			}
		} else {
			m.consecBreaches = 0
		}
	} else {
		m.consecBreaches = 0
	}

	// Release every frame reference this event owned; anything handed to a
	// local successor was retained on its behalf.
	for _, id := range m.ownedRefs {
		m.dev.store.Release(id)
	}
	m.ownedRefs = m.ownedRefs[:0]
	m.currentFrame = nil
	m.dev.reg.Histogram("module." + m.spec.Name + ".handle").Observe(time.Since(start))
	m.dev.reg.Meter("module." + m.spec.Name + ".events").Mark()
}

// Close stops the module and its sockets.
func (m *Module) Close() {
	m.closeOnce.Do(func() {
		close(m.done)
		m.pull.Close()
		m.pushMu.Lock()
		for _, p := range m.pushes {
			p.Close()
		}
		m.pushMu.Unlock()
		m.wg.Wait()
		// Drain any event parked in the channel so its frame ref is not
		// leaked in the store and its credit flows back to the source.
		for {
			select {
			case ev := <-m.events:
				if ev.frameID != 0 {
					m.abandonFrame(ev.frameID)
				}
			default:
				return
			}
		}
	})
}
