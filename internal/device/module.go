package device

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"videopipe/internal/clock"
	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/script"
	"videopipe/internal/wire"
)

// maxBreaches is how many consecutive budget breaches a module survives
// before the runtime kills it. A successful event resets the count, so an
// occasional expensive event is tolerated while a wedged module converges
// to a kill in maxBreaches events.
const maxBreaches = 3

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
}

// event is one unit of work for a module: a message body plus an optional
// frame already resident in the device store (the runtime passes frames by
// reference id, paper §3). The body's top-level object is the event's own;
// what it holds is too — cloned at send by a local sender that writes,
// scanned from the wire for a remote one, converted once from a Go-side
// source's map — unless shared is set: a read-only local sender's nested
// values, which a receiving context that writes clones before its handler
// runs (DESIGN.md §7).
type event struct {
	body    *script.Object
	frameID uint64
	shared  bool
}

// statelessReplicas is how many isolated contexts a provably stateless module
// runs on (script.Context.Stateless); every other module runs on one. A
// camera-rate lane offers well under one erlang of handler time (8 eps of an
// 86 ms pose call is 0.69), so a fifth concurrent event is rarer than one in
// a thousand, and measured goodput is flat from two contexts up.
const statelessReplicas = 4

// Module is a running module instance: one inbox feeding one or more
// isolated script contexts — one per worker, mirroring one Duktape context
// per module for any code that keeps state — through a single event loop.
// What the workers do that another module or the source can see happens in
// the order the events left the inbox (sequencer).
type Module struct {
	dev  *Device
	spec ModuleSpec

	pull   *wire.Pull
	events chan event
	swaps  chan []*worker
	done   chan struct{}
	wg     sync.WaitGroup

	// workers are the contexts of the code now running. The event loop owns
	// the slice once it starts (a hot swap replaces it between events).
	workers []*worker
	// idle hands a worker back to the event loop when its event has finished;
	// a worker has at most one hand-back pending, so a send never blocks.
	idle     chan *worker
	workerWG sync.WaitGroup
	seq      *sequencer

	allowed map[string]bool
	routeMu sync.RWMutex
	routes  map[string]Route
	pushMu  sync.Mutex
	pushes  map[string]*wire.Push

	// onFrameDone is invoked when module code calls frame_done() — the
	// queue-free flow-control signal back to the pipeline source (§2.3) —
	// with the frame's capture-to-completion latency (0 when unknown).
	onFrameDone func(e2e time.Duration)
	// onFrameAbandoned fires when an event that owned a frame errors out
	// before frame_done() was called, so the pipeline can reclaim the
	// credit instead of leaking it for the rest of the run.
	onFrameAbandoned func()

	// limits is the sandbox budget from the spec.
	limits script.Limits
	// killed flips when consecutive budget breaches exhaust the breach
	// allowance; a killed module quarantines (abandons) every event until
	// the supervisor restarts it. Read from other goroutines via Killed().
	killed atomic.Bool
	// consecBreaches counts back-to-back budget breaches in inbox order;
	// only the worker whose turn it is touches it.
	consecBreaches int
	// lastErr is the text of the most recent script error, stored on the
	// error path only.
	lastErr atomic.Pointer[string]
	// decodeOnReceipt is set while the running code can call services
	// (script.Context.CallsServices): receiveLoop then decodes an arriving
	// frame before queueing its event, as the paper's modules load a frame
	// ahead of the pose call. Other modules' frames stay encoded until
	// something reads their pixels.
	decodeOnReceipt atomic.Bool

	// The instruments an event touches, resolved once at spawn rather than
	// by name (a concatenation and the registry lock) per event; a
	// Registry.Reset keeps registrations, so the pointers stay current.
	instructions, handled, logs, framesDone *metrics.Meter
	handleTime, encodeTime, e2eTime         *metrics.Histogram

	// jsonDec scans inbound wire bodies, interning their short strings;
	// only receiveLoop uses it.
	jsonDec *script.JSONDecoder

	closeOnce sync.Once
}

// worker is one script context of a module and the state of the event it is
// handling, touched only by the worker's goroutine.
type worker struct {
	m    *Module
	ctx  *script.Context
	jobs chan job

	// ticket is the current event's place in inbox order; hasTurn records
	// that every earlier event has finished, so this one's ordered effects
	// may happen.
	ticket  uint64
	hasTurn bool

	ownedRefs []uint64
	// captured is the capture time of the event's frame, zero for none.
	captured      time.Time
	frameDoneSeen bool
	// outputUsed meters host-emitted bytes for the current event.
	outputUsed int64
	// encBuf and bodyBuf are the frame-encode and message-encode scratch
	// for outgoing remote edges, jsonEnc the encoder (with its key-sorting
	// scratch) that fills bodyBuf; all reused across events.
	encBuf  []byte
	bodyBuf []byte
	jsonEnc script.JSONEncoder
	// parts and args back a remote message's parts and event_received's
	// argument (cleared after the call): a per-event slice would escape.
	parts [2][]byte
	args  [1]script.Value
	// calls and sends bound each call_service and each remote call_module
	// by serviceCallTimeout: one deadline each, re-armed per call.
	calls, sends *clock.Deadline
	// stageHists caches the stage histogram behind each name module code
	// has passed to metric(), sparing the name concatenation and registry
	// walk per call; it goes with the code that chose the names.
	stageHists map[string]*metrics.Histogram
}

// job is an event on its way from the event loop to a worker.
type job struct {
	ev     event
	ticket uint64
}

// sequencer restores inbox order among a module's workers. Events are
// ticketed as they leave the inbox; a worker's effects that the rest of the
// pipeline can observe — a call_module delivery, frame_done(), the credit
// and breach bookkeeping at the end of an event — wait until every earlier
// ticket's event has finished, so each edge stays FIFO however the handlers
// overlapped. With one worker the wait never blocks.
type sequencer struct {
	mu     sync.Mutex
	moved  *sync.Cond
	turn   uint64 // the lowest ticket whose event has not finished
	closed bool
}

func newSequencer() *sequencer {
	s := &sequencer{}
	s.moved = sync.NewCond(&s.mu)
	return s
}

// await blocks until it is ticket's turn, or reports false when the module
// closed first.
func (s *sequencer) await(ticket uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.turn != ticket && !s.closed {
		s.moved.Wait()
	}
	return s.turn == ticket
}

// advance ends the current turn.
func (s *sequencer) advance() {
	s.mu.Lock()
	s.turn++
	s.mu.Unlock()
	s.moved.Broadcast()
}

// close wakes every parked worker; their waits fail from here on.
func (s *sequencer) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.moved.Broadcast()
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
		swaps:   make(chan []*worker, 1),
		done:    make(chan struct{}),
		idle:    make(chan *worker, statelessReplicas),
		seq:     newSequencer(),
		allowed: make(map[string]bool, len(spec.Services)),
		routes:  make(map[string]Route, len(spec.Next)),
		pushes:  make(map[string]*wire.Push),
		jsonDec: script.NewJSONDecoder(),
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
	m.instructions = d.reg.Meter("script." + spec.Name + ".instructions")
	m.handled = d.reg.Meter("module." + spec.Name + ".events")
	m.logs = d.reg.Meter("module." + spec.Name + ".logs")
	m.framesDone = d.reg.Meter("pipeline." + spec.Name + ".frames_done")
	m.handleTime = d.reg.Histogram("module." + spec.Name + ".handle")
	m.encodeTime = d.reg.Histogram("module." + spec.Name + ".encode")
	m.e2eTime = d.reg.Histogram("pipeline." + spec.Name + ".e2e")
	m.limits = spec.Limits

	var err error
	if m.workers, err = m.newWorkers(spec.Source); err != nil {
		return nil, fmt.Errorf("device: %s: loading module %q: %w", d.name, spec.Name, err)
	}
	m.decodeOnReceipt.Store(m.workers[0].ctx.CallsServices())

	pull, err := wire.ListenPull(d.transport, spec.Port)
	if err != nil {
		return nil, fmt.Errorf("device: %s: module %q endpoint: %w", d.name, spec.Name, err)
	}
	m.pull = pull

	d.mu.Lock()
	d.modules[spec.Name] = m
	d.mu.Unlock()

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
// migration. Only call after Close has returned: while the module runs, its
// workers own the script contexts. Replicated contexts hold no state, so
// the first speaks for all of them (its snapshot is empty).
func (m *Module) SnapshotState() *script.Snapshot { return m.workers[0].ctx.Snapshot() }

// SetFrameDone installs the flow-control callback fired by frame_done(); it
// receives the frame's capture-to-completion latency, 0 when unknown.
func (m *Module) SetFrameDone(fn func(e2e time.Duration)) { m.onFrameDone = fn }

// SetFrameAbandoned installs the callback fired when an event carrying a
// frame fails before reaching frame_done().
func (m *Module) SetFrameAbandoned(fn func()) { m.onFrameAbandoned = fn }

// TryInject delivers an event directly from Go — how the video source (a
// camera, not a script) feeds the first module — without blocking: it
// reports false when the module is busy (no credit), the source-side drop
// point of the queue-free design. The body (nil reads as empty) becomes the
// event's message and the frame, if any, goes into the device store: both
// are handed over, queued or not; an event not queued gives its store entry
// back.
func (m *Module) TryInject(body *script.Object, f *frame.Frame) (bool, error) {
	if body == nil {
		body = script.NewObjectSize(1) // room for the frame_ref
	}
	ev := event{body: body}
	if f != nil {
		id, err := m.dev.store.Put(f)
		if err != nil {
			f.Release() // the store never took it, so it is still ours
			return false, fmt.Errorf("device: inject into %s: %w", m.spec.Name, err)
		}
		ev.frameID = id
	}
	var err error
	select {
	case <-m.done: // checked first: nothing drains a closed module's inbox
		err = fmt.Errorf("device: module %s is closed", m.spec.Name)
	default:
		select {
		case m.events <- ev:
			return true, nil
		default: // busy: no credit
		}
	}
	if ev.frameID != 0 {
		m.dev.store.Release(ev.frameID)
	}
	return false, err
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
		// JSON and the store copy out of the parts, so the body buffer
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
			m.abandon(ev)
			return
		}
	}
}

// abandon drops an event that will never run: the frame it carries, if any,
// is released and its flow-control credit handed back to the source — the
// quarantine/close/drain counterpart of the error path in handle.
func (m *Module) abandon(ev event) {
	if ev.frameID != 0 {
		m.dev.store.Release(ev.frameID)
		m.abandonCredit()
	}
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
	body, err := m.jsonDec.DecodeFields(msg.Part(0))
	if err != nil {
		return event{}, fmt.Errorf("device: module %s: bad message body: %w", m.spec.Name, err)
	}
	if body == nil {
		body = script.NewObjectSize(1) // room for the frame_ref
	}
	ev := event{body: body}
	if len(msg.Part(1)) > 0 {
		// The frame is checked and stored as it arrived. Its pixels are
		// decoded here only for a module that calls services; otherwise on
		// their first read, if anything reads them, and a module that only
		// forwards the frame sends these bytes on.
		id, err := m.dev.store.PutEncoded(msg.Part(1), m.dev.codec)
		if err != nil {
			return event{}, fmt.Errorf("device: module %s: frame payload: %w", m.spec.Name, err)
		}
		if m.decodeOnReceipt.Load() {
			if _, err := m.dev.store.Get(id); err != nil {
				m.dev.store.Release(id)
				return event{}, fmt.Errorf("device: module %s: %w", m.spec.Name, err)
			}
		}
		ev.frameID = id
	}
	return ev, nil
}

// newWorkers loads source into fresh contexts: statelessReplicas of them
// when the code provably keeps no state between events, one otherwise.
// Loading stateless code runs no statement, so the extra loads are
// unobservable.
func (m *Module) newWorkers(source string) ([]*worker, error) {
	var ws []*worker
	for n := 1; len(ws) < n; {
		w := &worker{
			m: m, ctx: script.NewContext(), jobs: make(chan job),
			calls: clock.NewDeadline(m.dev.baseCtx, serviceCallTimeout),
			sends: clock.NewDeadline(context.Background(), serviceCallTimeout),
		}
		w.ctx.SetLimits(m.limits)
		w.bindHostAPI()
		if err := w.ctx.Load(source); err != nil {
			return nil, err
		}
		if w.ctx.Stateless() {
			n = statelessReplicas
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// startWorkers starts m.workers and returns them as the idle stack, first
// worker on top: the event loop reuses the worker freed last, so a module
// whose events never overlap only ever warms one context's scratch. swap
// says the workers replace a hot-swapped module's.
func (m *Module) startWorkers(restore *script.Snapshot, swap bool) []*worker {
	idle := make([]*worker, 0, len(m.workers))
	m.workerWG.Add(len(m.workers))
	for i := len(m.workers) - 1; i >= 0; i-- {
		go m.workers[i].run(i == 0, restore, swap)
		idle = append(idle, m.workers[i])
	}
	return idle
}

// stopWorkers ends the running workers once each has finished the event it
// holds.
func (m *Module) stopWorkers() {
	for _, w := range m.workers {
		close(w.jobs)
	}
	m.workerWG.Wait()
}

// eventLoop is the module's one event loop, whatever the number of
// contexts: it takes an event from the inbox only when a worker is free to
// run it (so the single slot stays the only queue), tickets it and hands it
// over, and applies a hot swap once every earlier event has finished.
func (m *Module) eventLoop() {
	defer m.wg.Done()
	idle := m.startWorkers(m.spec.Restore, false)
	defer m.stopWorkers()
	var ticket uint64
	for {
		var inbox chan event
		if len(idle) > 0 {
			inbox = m.events
		}
		select {
		case <-m.done:
			return
		case w := <-m.idle:
			idle = append(idle, w)
		case ws := <-m.swaps:
			for len(idle) < len(m.workers) {
				select {
				case w := <-m.idle:
					idle = append(idle, w)
				case <-m.done:
					return
				}
			}
			// The hot-update path: module state resets (the new code's top
			// level ran when it was loaded); init() runs on the fresh
			// context before the next event, and the first worker counts
			// the update once it has.
			m.stopWorkers()
			m.workers = ws
			m.decodeOnReceipt.Store(ws[0].ctx.CallsServices())
			idle = m.startWorkers(nil, true)
		case ev := <-inbox:
			if !m.admit(ev) {
				continue
			}
			w := idle[len(idle)-1]
			select {
			case w.jobs <- job{ev: ev, ticket: ticket}:
				idle = idle[:len(idle)-1]
				ticket++
			case <-m.done:
				m.abandon(ev)
				return
			}
		}
	}
}

// admit passes ev through the gates between the inbox and a context,
// reporting false when it was abandoned at one.
func (m *Module) admit(ev event) bool {
	// A killed module is quarantined: events are abandoned immediately so
	// their frame credits return to the source while the supervisor
	// arranges the restart.
	if m.killed.Load() {
		m.abandon(ev)
		return false
	}
	// A paused device (chaos reboot) holds the event until Resume; the
	// single-slot channel upstream means flow control sees the stall and
	// the source drops frames instead of queueing.
	if !m.dev.awaitRunning(m.done) {
		m.abandon(ev)
		return false
	}
	return true
}

// UpdateSource hot-swaps the module's code without disturbing its
// endpoint, routes or in-flight traffic — the live-redeployment half of
// the paper's "automatic deployment" future work. The new source is parsed
// and loaded off to the side; on failure the running module is untouched.
// The swap takes effect between events — those already taken from the inbox
// finish on the old code — and module state starts fresh.
func (m *Module) UpdateSource(source string) error {
	if source == "" {
		return fmt.Errorf("device: module %s: empty source", m.spec.Name)
	}
	ws, err := m.newWorkers(source)
	if err != nil {
		return fmt.Errorf("device: updating module %s: %w", m.spec.Name, err)
	}
	select {
	case m.swaps <- ws:
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

// LastError reports the text of the module's most recent script error
// (init or event_received), empty when it has had none.
func (m *Module) LastError() string {
	if s := m.lastErr.Load(); s != nil {
		return *s
	}
	return ""
}

// fail counts a script error on the module.<name>.errors meter and keeps
// its text for LastError.
func (m *Module) fail(err error) {
	m.dev.reg.Meter("module." + m.spec.Name + ".errors").Mark()
	msg := err.Error()
	m.lastErr.Store(&msg)
}

// run is a worker's goroutine: the first worker runs init() before any
// event, so module state never sees concurrent access, counts a hot swap
// once that init() has run, and takes over a predecessor's state; then
// each applies the events it is handed to its context, one at a time.
func (w *worker) run(first bool, restore *script.Snapshot, swap bool) {
	m := w.m
	defer m.workerWG.Done()
	defer w.calls.Close()
	defer w.sends.Close()
	if first && w.ctx.Has("init") {
		if _, err := w.ctx.Call("init"); err != nil {
			m.fail(err)
		}
	}
	if first && swap {
		m.dev.reg.Meter("module." + m.spec.Name + ".updates").Mark()
	}
	// Migration/restart: overlay the predecessor's global state on top of
	// whatever init() just set up — but only when the preserved state's
	// version matches the code now running. A mismatch means the state
	// shape changed (or a hostile swap poisoned it); starting fresh is the
	// safe outcome. Stateless code declares no global a snapshot could
	// fill, and must not be handed one per context to diverge on.
	if restore != nil && !w.ctx.Stateless() {
		if restore.Version() == w.ctx.PreservationVersion() {
			w.ctx.Restore(restore)
		} else {
			m.dev.reg.Meter("module." + m.spec.Name + ".restore_discarded").Mark()
		}
	}
	for j := range w.jobs {
		w.handle(j)
		m.idle <- w
	}
}

// awaitTurn parks the worker until every earlier event has finished; false
// means the module closed first.
func (w *worker) awaitTurn() bool {
	if !w.hasTurn {
		w.hasTurn = w.m.seq.await(w.ticket)
	}
	return w.hasTurn
}

func (w *worker) handle(j job) {
	m, ev := w.m, j.ev
	start := time.Now()
	w.ticket, w.hasTurn = j.ticket, false
	w.ownedRefs = w.ownedRefs[:0]
	w.captured = time.Time{}
	w.frameDoneSeen = false
	if ev.frameID != 0 {
		w.ownedRefs = append(w.ownedRefs, ev.frameID)
		// The header, not the pixels: a frame that arrived encoded stays so.
		if hdr, err := m.dev.store.Header(ev.frameID); err == nil {
			w.captured = hdr.Captured
		}
		ev.body.SetNum(frameRef, float64(ev.frameID))
	}

	w.outputUsed = 0
	var err error
	if ev.shared && !w.ctx.ReadOnly() {
		err = script.Unshare(ev.body)
	}
	if err == nil {
		w.args[0] = ev.body
		_, err = w.ctx.Call("event_received", w.args[:]...)
		w.args[0] = nil
	}
	// Per-event interpreter instruction count — the runtime half of the
	// pipecost validation loop (static bound >= this) and the counter the
	// sandbox instruction budget is enforced against.
	m.instructions.MarkN(uint64(w.ctx.LastInstructions()))

	// What follows is visible outside the module — a returned credit, the
	// breach count — so it too happens in inbox order. A module that closed
	// meanwhile has nobody left to order for.
	ordered := w.awaitTurn()
	breach := false
	if err != nil {
		m.fail(err)
		// The frame this event owned will never reach frame_done();
		// return its credit so the source is not starved forever.
		if ev.frameID != 0 && !w.frameDoneSeen {
			m.abandonCredit()
		}
		var be *script.BudgetError
		if breach = errors.As(err, &be); breach {
			m.dev.reg.Meter("script." + m.spec.Name + ".breaches").Mark()
		}
	}
	if ordered && !breach {
		m.consecBreaches = 0
	} else if ordered {
		m.consecBreaches++
		if m.consecBreaches >= maxBreaches && !m.killed.Load() {
			m.killed.Store(true)
			m.dev.reg.Meter("script." + m.spec.Name + ".killed").Mark()
		}
	}

	// Release every frame reference this event owned; anything handed to a
	// local successor was retained on its behalf.
	for _, id := range w.ownedRefs {
		m.dev.store.Release(id)
	}
	w.ownedRefs = w.ownedRefs[:0]
	m.handleTime.Observe(time.Since(start))
	m.handled.Mark()
	if ordered {
		m.seq.advance()
	}
}

// Close stops the module and its sockets.
func (m *Module) Close() {
	m.closeOnce.Do(func() {
		close(m.done)
		m.seq.close()
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
				m.abandon(ev)
			default:
				return
			}
		}
	})
}
