// Package device models the heterogeneous edge devices VideoPipe runs on:
// phones, desktops, TVs and other home hardware that differ in CPU speed
// and in whether they can run containers (paper §1: "Some of these devices
// … cannot run container-based applications but can support a high-level
// language … Others … can run container-based applications").
//
// Every device exposes the same module runtime — an isolated PipeScript
// context per module with the Table-1 host API — which is the paper's
// central trick: a uniform runtime over non-uniform hardware. Container-
// capable devices additionally host stateless service pools; modules call
// services locally when co-located and transparently fall back to remote
// API calls otherwise.
package device

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/wire"
)

// Class describes the kind of device, which determines its default
// capability profile.
type Class int

// Device classes. Enums start at one.
const (
	Phone Class = iota + 1
	Desktop
	TV
	Laptop
	Watch
	Fridge
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Phone:
		return "phone"
	case Desktop:
		return "desktop"
	case TV:
		return "tv"
	case Laptop:
		return "laptop"
	case Watch:
		return "watch"
	case Fridge:
		return "fridge"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Profile is a class's default hardware capability.
type Profile struct {
	// CPUFactor scales service compute: 1.0 is the reference desktop.
	CPUFactor float64
	// MediaFactor scales codec work (JPEG encode/decode). Modern consumer
	// devices carry hardware codecs, so this is usually 1.0 even on slow
	// CPUs; wearables and appliances lack them. Zero means same as
	// CPUFactor.
	MediaFactor float64
	// ContainerCapable reports whether the device can host services.
	ContainerCapable bool
}

// DefaultProfile returns the capability profile the paper's testbed
// implies for each class.
func DefaultProfile(c Class) Profile {
	switch c {
	case Desktop:
		return Profile{CPUFactor: 1.0, MediaFactor: 1.0, ContainerCapable: true}
	case Laptop:
		return Profile{CPUFactor: 0.8, MediaFactor: 1.0, ContainerCapable: true}
	case Phone:
		// 2018-flagship class: slow general compute relative to a desktop,
		// but a hardware JPEG codec.
		return Profile{CPUFactor: 0.5, MediaFactor: 1.0, ContainerCapable: false}
	case TV:
		return Profile{CPUFactor: 0.5, MediaFactor: 1.0, ContainerCapable: true}
	case Watch:
		return Profile{CPUFactor: 0.08, MediaFactor: 0.3, ContainerCapable: false}
	case Fridge:
		return Profile{CPUFactor: 0.15, MediaFactor: 0.3, ContainerCapable: false}
	default:
		return Profile{CPUFactor: 0.2}
	}
}

// Config describes one device.
type Config struct {
	// Name is the device's network identity (netsim host name).
	Name string
	// Class is the device kind.
	Class Class
	// Profile overrides the class default when non-zero.
	Profile Profile
}

// Device is a running edge device.
type Device struct {
	name    string
	class   Class
	profile Profile

	transport wire.Transport
	store     *frame.Store
	codec     frame.Codec
	reg       *metrics.Registry

	logf func(format string, args ...any)

	mu        sync.Mutex
	pools     map[string]*services.Pool
	server    *services.Server
	health    *wire.Responder
	remoteDir map[string]string // service name -> "host:port"
	clients   map[string]*services.Client
	modules   map[string]*Module
	closed    bool

	pauseMu  sync.Mutex
	resumeCh chan struct{} // non-nil while paused; closed by Resume
	crashed  bool

	// baseCtx parents every in-flight service call from this device's
	// modules; Crash cancels it so calls blocked on a dead host's pools
	// fail immediately instead of holding event loops until their 30 s
	// deadlines (which would stall migration for the same span).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// breakerStates mirrors the per-service circuit states of this
	// device's remote-service clients, for monitor reports.
	breakerMu     sync.Mutex
	breakerStates map[string]services.BreakerState
}

// New creates a device on the given transport. reg receives the device's
// measurements; nil creates a private registry.
func New(cfg Config, t wire.Transport, reg *metrics.Registry) (*Device, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("device: config missing name")
	}
	if t == nil {
		return nil, fmt.Errorf("device: %s: nil transport", cfg.Name)
	}
	profile := cfg.Profile
	if profile.CPUFactor == 0 {
		profile = DefaultProfile(cfg.Class)
	}
	if profile.MediaFactor == 0 {
		profile.MediaFactor = profile.CPUFactor
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	return &Device{
		name:          cfg.Name,
		class:         cfg.Class,
		profile:       profile,
		transport:     t,
		store:         frame.NewStore(0),
		codec:         paddedCodec{inner: frame.JPEGCodec{Quality: 85}, cpuFactor: profile.MediaFactor},
		reg:           reg,
		pools:         make(map[string]*services.Pool),
		remoteDir:     make(map[string]string),
		clients:       make(map[string]*services.Client),
		modules:       make(map[string]*Module),
		baseCtx:       baseCtx,
		baseCancel:    baseCancel,
		breakerStates: make(map[string]services.BreakerState),
	}, nil
}

// Name reports the device's network name.
func (d *Device) Name() string { return d.name }

// Class reports the device kind.
func (d *Device) Class() Class { return d.class }

// ContainerCapable reports whether services can be deployed here.
func (d *Device) ContainerCapable() bool { return d.profile.ContainerCapable }

// CPUFactor reports the device's relative compute speed.
func (d *Device) CPUFactor() float64 { return d.profile.CPUFactor }

// Store exposes the device's frame store.
func (d *Device) Store() *frame.Store { return d.store }

// Transport exposes the device's network view.
func (d *Device) Transport() wire.Transport { return d.transport }

// Metrics exposes the device's measurement registry.
func (d *Device) Metrics() *metrics.Registry { return d.reg }

// SetCodec overrides the frame codec used for network transfers. The
// codec still pays device-scaled CPU cost.
func (d *Device) SetCodec(c frame.Codec) {
	d.codec = paddedCodec{inner: c, cpuFactor: d.profile.MediaFactor}
}

// SetLogf installs a sink for module log() output; nil silences it.
func (d *Device) SetLogf(logf func(format string, args ...any)) { d.logf = logf }

// DeployService starts a pool of n instances of the service on this
// device. Only container-capable devices may host services (paper §2.2:
// "we can only deploy the services on the devices that support
// containers").
func (d *Device) DeployService(spec services.Spec, n int) (*services.Pool, error) {
	if !d.profile.ContainerCapable {
		return nil, fmt.Errorf("device: %s (%s) cannot run containers", d.name, d.class)
	}
	pool, err := services.NewPool(spec, n, d.profile.CPUFactor)
	if err != nil {
		return nil, err
	}
	pool.Instrument(d.reg)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.pools[spec.Name]; dup {
		return nil, fmt.Errorf("device: %s already hosts %s", d.name, spec.Name)
	}
	d.pools[spec.Name] = pool
	return pool, nil
}

// Pool returns the local pool for a service, if hosted here.
func (d *Device) Pool(name string) (*services.Pool, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pools[name]
	return p, ok
}

// ServeServices exposes this device's pools to remote callers at port
// (0 = ephemeral) and returns the bound address. Calling it again is
// idempotent: pools deployed since the first call (the failover
// redeployment path) join the existing server rather than leaking a
// second listener.
func (d *Device) ServeServices(port int) (net.Addr, error) {
	d.mu.Lock()
	pools := make(map[string]*services.Pool, len(d.pools))
	for n, p := range d.pools {
		pools[n] = p
	}
	if srv := d.server; srv != nil {
		d.mu.Unlock()
		for n, p := range pools {
			srv.AddPool(n, p)
		}
		return srv.Addr(), nil
	}
	d.mu.Unlock()
	srv, err := services.NewServer(d.transport, port, pools, d.codec)
	if err != nil {
		return nil, fmt.Errorf("device: %s: %w", d.name, err)
	}
	d.mu.Lock()
	if d.server != nil {
		// Lost a race with a concurrent ServeServices; keep the winner.
		existing := d.server
		d.mu.Unlock()
		srv.Close()
		for n, p := range pools {
			existing.AddPool(n, p)
		}
		return existing.Addr(), nil
	}
	d.server = srv
	d.mu.Unlock()
	return srv.Addr(), nil
}

// ServeHealth binds the device's liveness-probe endpoint (idempotent) and
// returns its address. Replies go through the pause gate, so a paused
// (hung) or crashed device accepts the probe connection but never
// answers — exactly how a wedged host looks from the outside.
func (d *Device) ServeHealth() (net.Addr, error) {
	d.mu.Lock()
	if d.health != nil {
		h := d.health
		d.mu.Unlock()
		return h.Addr(), nil
	}
	d.mu.Unlock()
	resp, err := wire.ListenHealth(d.transport, 0, d.healthGate)
	if err != nil {
		return nil, fmt.Errorf("device: %s: health endpoint: %w", d.name, err)
	}
	d.mu.Lock()
	if d.health != nil {
		h := d.health
		d.mu.Unlock()
		resp.Close()
		return h.Addr(), nil
	}
	d.health = resp
	d.mu.Unlock()
	return resp.Addr(), nil
}

// healthGate blocks health replies while the device is paused or crashed,
// mirroring the module event loops' pause behaviour.
func (d *Device) healthGate(ctx context.Context) error {
	for {
		ch := d.pauseGate()
		if ch == nil {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// RegisterRemoteService tells this device where to reach a service it does
// not host.
func (d *Device) RegisterRemoteService(name, address string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.remoteDir[name] = address
}

// CallService invokes a service by name: locally when a pool is hosted
// here (the co-located fast path — no encode, no network), otherwise as a
// remote API call to the registered address. args is lent to the service
// until the call returns (services.Request.Args); the result is the
// caller's.
func (d *Device) CallService(ctx context.Context, name string, args map[string]script.Value, f *frame.Frame) (services.Response, error) {
	start := time.Now()
	resp, remote, err := d.callService(ctx, name, args, f)
	where := "local"
	if remote {
		where = "remote"
	}
	d.reg.Histogram("service." + name + "." + where).Observe(time.Since(start))
	if err != nil {
		// The supervisor watches this meter's rate for error bursts that
		// call for a service restart.
		d.reg.Meter("service." + name + ".errors").Mark()
		if errors.Is(err, context.DeadlineExceeded) {
			d.reg.Meter("rpc.timeouts").Mark()
		}
	}
	return resp, err
}

func (d *Device) callService(ctx context.Context, name string, args map[string]script.Value, f *frame.Frame) (services.Response, bool, error) {
	if pool, ok := d.Pool(name); ok {
		resp, err := pool.Invoke(ctx, services.Request{Args: args, Frame: f})
		return resp, false, err
	}

	d.mu.Lock()
	addr, ok := d.remoteDir[name]
	if !ok {
		d.mu.Unlock()
		return services.Response{}, true, fmt.Errorf("device: %s: service %q neither local nor registered", d.name, name)
	}
	client, ok := d.clients[addr]
	if !ok {
		client = services.NewClient(d.transport, addr, d.codec)
		client.SetBreakerNotify(func(service string, s services.BreakerState) {
			d.breakerMu.Lock()
			d.breakerStates[service] = s
			d.breakerMu.Unlock()
			d.reg.Meter("breaker." + service + "." + s.String()).Mark()
		})
		d.clients[addr] = client
	}
	d.mu.Unlock()

	resp, err := client.Call(ctx, name, args, f)
	return resp, true, err
}

// Pause freezes the device — the chaos engine's reboot/crash hook. Module
// event loops stop consuming events and locally hosted service pools stop
// serving (remote callers block until their deadlines) until Resume.
// Network endpoints stay bound, mirroring a hung rather than powered-off
// host; pair with netsim.Partition to model a full outage.
func (d *Device) Pause() {
	d.pauseMu.Lock()
	if d.resumeCh == nil {
		d.resumeCh = make(chan struct{})
	}
	d.pauseMu.Unlock()
	d.mu.Lock()
	pools := make([]*services.Pool, 0, len(d.pools))
	for _, p := range d.pools {
		pools = append(pools, p)
	}
	d.mu.Unlock()
	for _, p := range pools {
		p.Pause()
	}
}

// Resume releases a paused device; modules and pools pick up where they
// stopped.
func (d *Device) Resume() {
	d.pauseMu.Lock()
	if d.resumeCh != nil {
		close(d.resumeCh)
		d.resumeCh = nil
	}
	d.pauseMu.Unlock()
	d.mu.Lock()
	pools := make([]*services.Pool, 0, len(d.pools))
	for _, p := range d.pools {
		pools = append(pools, p)
	}
	d.mu.Unlock()
	for _, p := range pools {
		p.Resume()
	}
}

// Crash marks the device permanently dead — the chaos engine's
// device_crash hook. Unlike Pause there is no matching Resume in the
// fault model: recovery means the supervisor migrating this device's
// modules and services elsewhere. Cancelling baseCtx first makes every
// in-flight service call from this device's modules fail immediately, so
// their event loops park on the pause gate instead of blocking module
// Close (and hence migration) until a 30 s call deadline.
func (d *Device) Crash() {
	d.pauseMu.Lock()
	if d.crashed {
		d.pauseMu.Unlock()
		return
	}
	d.crashed = true
	d.pauseMu.Unlock()
	d.baseCancel()
	d.Pause()
}

// Crashed reports whether the device has been declared dead via Crash.
func (d *Device) Crashed() bool {
	d.pauseMu.Lock()
	defer d.pauseMu.Unlock()
	return d.crashed
}

// Paused reports whether the device is currently frozen.
func (d *Device) Paused() bool {
	d.pauseMu.Lock()
	defer d.pauseMu.Unlock()
	return d.resumeCh != nil
}

// BreakerStates snapshots the per-service circuit states observed by this
// device's remote-service clients.
func (d *Device) BreakerStates() map[string]services.BreakerState {
	d.breakerMu.Lock()
	defer d.breakerMu.Unlock()
	out := make(map[string]services.BreakerState, len(d.breakerStates))
	for n, s := range d.breakerStates {
		out[n] = s
	}
	return out
}

// pauseGate returns the channel module event loops wait on while the
// device is paused, or nil when running.
func (d *Device) pauseGate() <-chan struct{} {
	d.pauseMu.Lock()
	defer d.pauseMu.Unlock()
	return d.resumeCh
}

// HasService reports whether the device can reach the named service at
// all (locally or remotely).
func (d *Device) HasService(name string) bool {
	if _, ok := d.Pool(name); ok {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.remoteDir[name]
	return ok
}

// Close stops the device: modules, service server and clients.
func (d *Device) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	mods := make([]*Module, 0, len(d.modules))
	for _, m := range d.modules {
		mods = append(mods, m)
	}
	server := d.server
	health := d.health
	clients := make([]*services.Client, 0, len(d.clients))
	for _, c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()

	for _, m := range mods {
		m.Close()
	}
	// Modules are down; cancel the service-call context purely as cleanup.
	d.baseCancel()
	if server != nil {
		server.Close()
	}
	if health != nil {
		health.Close()
	}
	for _, c := range clients {
		c.Close()
	}
	return nil
}

// DropModule forgets a module without closing it — the migration path:
// the module has already been closed explicitly and its replacement lives
// on another device, so this (possibly dead) device must not re-close it
// during teardown.
func (d *Device) DropModule(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.modules, name)
}

// ParseClass parses a device class name from a configuration file.
func ParseClass(s string) (Class, error) {
	for _, c := range []Class{Phone, Desktop, TV, Laptop, Watch, Fridge} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("device: unknown device class %q", s)
}
