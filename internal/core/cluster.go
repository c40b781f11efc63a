package core

import (
	"fmt"
	"slices"
	"sync"

	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

// ServicePlacement deploys one service pool onto a device.
type ServicePlacement struct {
	// Service names a spec in the cluster's registry.
	Service string
	// Device hosts the pool; it must be container-capable.
	Device string
	// Instances is the initial pool size; <= 0 means 1.
	Instances int
}

// ClusterSpec assembles a simulated home deployment: the devices, the
// network between them, and where each service runs.
type ClusterSpec struct {
	// Devices lists the edge devices.
	Devices []device.Config
	// DefaultLink shapes unconfigured device pairs; the zero value selects
	// the Wi-Fi preset (the paper's testbed fabric).
	DefaultLink netsim.LinkProfile
	// Services places service pools on devices.
	Services []ServicePlacement
}

// Cluster is a running set of devices with deployed services, shared by
// the pipelines launched onto it (service sharing across pipelines is
// §5.2.2's experiment).
type Cluster struct {
	network  *netsim.Network
	registry *services.Registry
	reg      *metrics.Registry

	mu          sync.Mutex
	devices     map[string]*device.Device
	order       []string
	down        map[string]bool   // devices declared dead by the supervisor
	serviceHost map[string]string // service -> device name
	pipelines   []*Pipeline
	closed      bool
}

// NewCluster builds the devices and network and deploys the services.
func NewCluster(spec ClusterSpec, registry *services.Registry) (*Cluster, error) {
	if len(spec.Devices) == 0 {
		return nil, fmt.Errorf("core: cluster needs at least one device")
	}
	if registry == nil {
		return nil, fmt.Errorf("core: cluster needs a service registry")
	}
	link := spec.DefaultLink
	if link == (netsim.LinkProfile{}) {
		link = netsim.WiFi
	}

	c := &Cluster{
		network:     netsim.NewNetwork(link),
		registry:    registry,
		reg:         metrics.NewRegistry(),
		devices:     make(map[string]*device.Device),
		down:        make(map[string]bool),
		serviceHost: make(map[string]string),
	}
	for _, dc := range spec.Devices {
		if _, dup := c.devices[dc.Name]; dup {
			c.Close()
			return nil, fmt.Errorf("core: duplicate device %q", dc.Name)
		}
		d, err := device.New(dc, c.network.Host(dc.Name), c.reg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.devices[dc.Name] = d
		c.order = append(c.order, dc.Name)
	}

	// Deploy service pools.
	needServer := make(map[string]bool)
	for _, sp := range spec.Services {
		d, ok := c.devices[sp.Device]
		if !ok {
			c.Close()
			return nil, fmt.Errorf("core: service %q placed on unknown device %q", sp.Service, sp.Device)
		}
		svcSpec, err := registry.Lookup(sp.Service)
		if err != nil {
			c.Close()
			return nil, err
		}
		n := sp.Instances
		if n <= 0 {
			n = 1
		}
		if _, err := d.DeployService(svcSpec, n); err != nil {
			c.Close()
			return nil, err
		}
		if prev, dup := c.serviceHost[sp.Service]; dup {
			c.Close()
			return nil, fmt.Errorf("core: service %q deployed on both %q and %q; one host per cluster", sp.Service, prev, sp.Device)
		}
		c.serviceHost[sp.Service] = sp.Device
		needServer[sp.Device] = true
	}

	// Start service servers and register remote directories everywhere.
	serverAddr := make(map[string]string)
	for devName := range needServer {
		addr, err := c.devices[devName].ServeServices(0)
		if err != nil {
			c.Close()
			return nil, err
		}
		serverAddr[devName] = addr.String()
	}
	for svc, host := range c.serviceHost {
		for name, d := range c.devices {
			if name == host {
				continue
			}
			d.RegisterRemoteService(svc, serverAddr[host])
		}
	}
	return c, nil
}

// Device returns a cluster device by name.
func (c *Cluster) Device(name string) (*device.Device, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.devices[name]
	return d, ok
}

// DeviceNames lists the live devices in configuration order. Devices
// declared dead via MarkDown are excluded, so planners re-planning after
// a failure never place modules on them.
func (c *Cluster) DeviceNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.order))
	for _, n := range c.order {
		if !c.down[n] {
			out = append(out, n)
		}
	}
	return out
}

// MarkDown declares a device dead — the supervisor's verdict after
// repeated missed health probes. The device stays reachable through
// Device (teardown still needs it) but disappears from DeviceNames and
// from future plans.
func (c *Cluster) MarkDown(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down[name] = true
}

// IsDown reports whether a device has been declared dead.
func (c *Cluster) IsDown(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[name]
}

// Pipelines snapshots the pipelines launched on this cluster.
func (c *Cluster) Pipelines() []*Pipeline { return c.appendPipelines(nil) }

// appendPipelines appends the launched pipelines to dst, so a caller that
// reuses dst snapshots them without allocating.
func (c *Cluster) appendPipelines(dst []*Pipeline) []*Pipeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(dst, c.pipelines...)
}

// RedeployService moves a service pool to a new host device — the
// failover path after the original host dies. The pool is deployed fresh
// on the target (reusing an existing pool if the target already hosts
// one), the target's server picks it up, and every live device's remote
// directory is repointed. Callers resolving via Cluster.Pool see the new
// host immediately.
func (c *Cluster) RedeployService(service, target string, instances int) error {
	d, ok := c.Device(target)
	if !ok {
		return fmt.Errorf("core: redeploy %q: unknown device %q", service, target)
	}
	if c.IsDown(target) {
		return fmt.Errorf("core: redeploy %q: device %q is down", service, target)
	}
	spec, err := c.registry.Lookup(service)
	if err != nil {
		return err
	}
	if instances <= 0 {
		instances = 1
	}
	if pool, hosted := d.Pool(service); hosted {
		// Target already hosts a pool (perhaps drained); make sure it is
		// big enough, paying any simulated container spin-up here.
		if pool.Size() < instances {
			if err := pool.Scale(instances); err != nil {
				return err
			}
		}
	} else {
		if _, err := d.DeployService(spec, instances); err != nil {
			return err
		}
	}
	addr, err := d.ServeServices(0)
	if err != nil {
		return err
	}

	c.mu.Lock()
	c.serviceHost[service] = target
	devs := make(map[string]*device.Device, len(c.devices))
	for n, dev := range c.devices {
		if n == target || c.down[n] {
			continue
		}
		devs[n] = dev
	}
	c.mu.Unlock()

	for _, dev := range devs {
		dev.RegisterRemoteService(service, addr.String())
	}
	return nil
}

// ServiceHost reports which device hosts a service pool.
func (c *Cluster) ServiceHost(service string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.serviceHost[service]
	return h, ok
}

// Pool returns the pool backing a service, for scaling experiments.
func (c *Cluster) Pool(service string) (*services.Pool, error) {
	host, ok := c.ServiceHost(service)
	if !ok {
		return nil, fmt.Errorf("core: service %q not deployed", service)
	}
	d, _ := c.Device(host)
	pool, ok := d.Pool(service)
	if !ok {
		return nil, fmt.Errorf("core: device %q lost pool %q", host, service)
	}
	return pool, nil
}

// Network exposes the simulated fabric, for link-shaping experiments.
func (c *Cluster) Network() *netsim.Network { return c.network }

// Metrics exposes the cluster-wide measurement registry shared by all
// devices and pipelines.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// SetCodec overrides the frame codec on every device — the transfer-cost
// ablation knob (JPEG vs raw).
func (c *Cluster) SetCodec(codec frame.Codec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.devices {
		d.SetCodec(codec)
	}
}

// ServiceNames lists deployed services, sorted.
func (c *Cluster) ServiceNames() []string { return c.appendServiceNames(nil) }

// appendServiceNames appends the deployed services to dst, sorted, so a
// caller that reuses dst lists them without allocating.
func (c *Cluster) appendServiceNames(dst []string) []string {
	n := len(dst)
	c.mu.Lock()
	for s := range c.serviceHost {
		dst = append(dst, s)
	}
	c.mu.Unlock()
	slices.Sort(dst[n:])
	return dst
}

// TuningSetpoints is a snapshot of every actuator the tune phase controls
// — pool sizes and credit caps — detached from the cluster that produced
// it. A sweep carries it from rung to rung (flood.Sweep) so each rung
// starts from the configuration the previous rung learned, the way a
// long-lived deployment faces rising load: already tuned, not cold.
type TuningSetpoints struct {
	// Services maps service name to its pool's instance count.
	Services map[string]int
	// Pipelines maps pipeline name to its credit-window cap.
	Pipelines map[string]int
}

// Setpoints snapshots the cluster's current actuator state.
func (c *Cluster) Setpoints() TuningSetpoints {
	sp := TuningSetpoints{Services: make(map[string]int), Pipelines: make(map[string]int)}
	for _, name := range c.ServiceNames() {
		if pool, err := c.Pool(name); err == nil {
			sp.Services[name] = pool.Size()
		}
	}
	for _, p := range c.Pipelines() {
		sp.Pipelines[p.Name()] = p.Credits()
	}
	return sp
}

// Prime applies carried-over setpoints to a fresh cluster before load
// arrives: pools grow to (never shrink below) their learned size and credit
// caps widen to theirs. Prime is initial configuration, not a decision, so
// nothing is journaled.
func (c *Cluster) Prime(sp TuningSetpoints) {
	for _, name := range c.ServiceNames() {
		if pool, err := c.Pool(name); err == nil && sp.Services[name] > pool.Size() {
			_ = pool.Scale(sp.Services[name])
		}
	}
	for _, p := range c.Pipelines() {
		if credits := sp.Pipelines[p.Name()]; credits > p.Credits() {
			_ = p.ResizeCredits(credits)
		}
	}
}

// Close stops all pipelines and devices.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pipelines := append([]*Pipeline(nil), c.pipelines...)
	devs := make([]*device.Device, 0, len(c.devices))
	for _, d := range c.devices {
		devs = append(devs, d)
	}
	c.mu.Unlock()

	for _, p := range pipelines {
		p.Close()
	}
	for _, d := range devs {
		d.Close()
	}
	if c.network != nil {
		c.network.Close()
	}
}
