package netsim

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// Addr is the net.Addr implementation for simulated endpoints.
type Addr struct {
	// Host is the simulated device name, e.g. "desktop".
	Host string
	// Port is the simulated port number.
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return "sim" }

// String renders the address as host:port.
func (a Addr) String() string { return net.JoinHostPort(a.Host, strconv.Itoa(a.Port)) }

// hostPair is an unordered pair of host names used as a link key.
type hostPair struct{ a, b string }

func makePair(a, b string) hostPair {
	if a > b {
		a, b = b, a
	}
	return hostPair{a, b}
}

// Network is a simulated network fabric connecting named hosts. Links
// between host pairs carry configurable profiles; unconfigured pairs use the
// default profile, and intra-host traffic uses the Loopback profile unless
// overridden.
type Network struct {
	mu           sync.Mutex
	defaultLink  LinkProfile
	shapes       map[hostPair]LinkProfile // transient overrides (chaos)
	listeners    map[string]*listener     // key host:port
	nextPort     map[string]int
	nextPipeSeed int64
	partitioned  map[hostPair]bool
	conns        map[hostPair][]*conn
	closed       bool
}

// NewNetwork creates a network whose unconfigured host pairs use def.
func NewNetwork(def LinkProfile) *Network {
	return &Network{
		defaultLink:  def,
		shapes:       make(map[hostPair]LinkProfile),
		listeners:    make(map[string]*listener),
		nextPort:     make(map[string]int),
		nextPipeSeed: 1,
		partitioned:  make(map[hostPair]bool),
		conns:        make(map[hostPair][]*conn),
	}
}

// Shape installs a transient profile override between two hosts — the
// failure-injection knob for latency spikes and loss bursts. It takes
// effect on established connections immediately (every pipe resolves its
// profile per write) and is reversed by ClearShape.
func (n *Network) Shape(a, b string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.shapes[makePair(a, b)] = p
}

// ClearShape removes a Shape override, restoring the configured profile.
func (n *Network) ClearShape(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.shapes, makePair(a, b))
}

// Shaped reports whether a transient shaping override is active between
// two hosts.
func (n *Network) Shaped(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.shapes[makePair(a, b)]
	return ok
}

// linkProfile reports the profile between two hosts.
func (n *Network) linkProfile(a, b string) LinkProfile {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.shapes[makePair(a, b)]; ok {
		return p
	}
	if a == b {
		return Loopback
	}
	return n.defaultLink
}

// Listen opens a simulated listener on host at port. Port 0 allocates an
// unused ephemeral port. The listener's Addr reports the bound address.
func (n *Network) Listen(host string, port int) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("netsim: listen on closed network")
	}
	if host == "" {
		return nil, fmt.Errorf("netsim: listen: empty host")
	}
	if port == 0 {
		port = n.allocPortLocked(host)
	}
	key := Addr{Host: host, Port: port}.String()
	if _, exists := n.listeners[key]; exists {
		return nil, fmt.Errorf("netsim: listen %s: address already in use", key)
	}
	l := &listener{
		net:    n,
		addr:   Addr{Host: host, Port: port},
		accept: make(chan net.Conn, 16),
		done:   make(chan struct{}),
	}
	n.listeners[key] = l
	return l, nil
}

func (n *Network) allocPortLocked(host string) int {
	p := n.nextPort[host]
	if p < 40000 {
		p = 40000
	}
	for {
		p++
		if _, used := n.listeners[Addr{Host: host, Port: p}.String()]; !used {
			n.nextPort[host] = p
			return p
		}
	}
}

// Dial connects from the named host to address "host:port", simulating a
// connection-establishment handshake of one RTT on the link.
func (n *Network) Dial(fromHost, address string) (net.Conn, error) {
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: dial %s: %w", address, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("netsim: dial %s: bad port: %w", address, err)
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial on closed network")
	}
	if n.partitioned[makePair(fromHost, host)] {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial %s: network partition between %s and %s", address, fromHost, host)
	}
	l, ok := n.listeners[Addr{Host: host, Port: port}.String()]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial %s: connection refused", address)
	}
	seed := n.nextPipeSeed
	n.nextPipeSeed += 2
	localPort := n.allocPortLocked(fromHost)
	n.mu.Unlock()

	// Pipes resolve the profile per write so shaping changes mid-connection
	// (Shape/ClearShape) apply to traffic already in flight.
	profile := func() LinkProfile { return n.linkProfile(fromHost, host) }
	// Handshake: one round trip before the connection is usable.
	if rtt := profile().RTT(); rtt > 0 {
		time.Sleep(rtt)
	}

	clientAddr := Addr{Host: fromHost, Port: localPort}
	serverAddr := Addr{Host: host, Port: port}
	c2s := newShapedPipe(profile, seed)
	s2c := newShapedPipe(profile, seed+1)
	clientConn := &conn{local: clientAddr, remote: serverAddr, rd: s2c, wr: c2s}
	serverConn := &conn{local: serverAddr, remote: clientAddr, rd: c2s, wr: s2c}

	n.mu.Lock()
	pair := makePair(fromHost, host)
	// Prune dead connections so long-lived networks with reconnecting
	// peers don't accumulate tracking entries.
	live := n.conns[pair][:0]
	for _, c := range n.conns[pair] {
		if !c.isClosed() {
			live = append(live, c)
		}
	}
	n.conns[pair] = append(live, clientConn, serverConn)
	n.mu.Unlock()

	select {
	case l.accept <- serverConn:
		return clientConn, nil
	case <-l.done:
		return nil, fmt.Errorf("netsim: dial %s: connection refused", address)
	}
}

// Partition cuts the link between hosts a and b — a failure-injection
// knob: every established connection between them is severed and new
// dials are refused until Heal. Modelled on a device leaving Wi-Fi range.
func (n *Network) Partition(a, b string) {
	pair := makePair(a, b)
	n.mu.Lock()
	n.partitioned[pair] = true
	broken := n.conns[pair]
	n.conns[pair] = nil
	n.mu.Unlock()
	for _, c := range broken {
		c.Close()
	}
}

// Heal removes a partition; new connections between the hosts succeed
// again (severed connections stay dead — endpoints must redial).
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, makePair(a, b))
}

// Partitioned reports whether the link between a and b is cut.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitioned[makePair(a, b)]
}

// Close shuts down the network: all listeners stop accepting. Established
// connections are unaffected.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for key, l := range n.listeners {
		l.closeLocked()
		delete(n.listeners, key)
	}
}

func (n *Network) removeListener(a Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, a.String())
}

// listener implements net.Listener over the simulated network.
type listener struct {
	net    *Network
	addr   Addr
	accept chan net.Conn

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

var _ net.Listener = (*listener)(nil)

// Accept waits for the next inbound connection.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("netsim: accept %s: listener closed", l.addr)
	}
}

// Close stops the listener.
func (l *listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	close(l.done)
	l.net.removeListener(l.addr)
	return nil
}

func (l *listener) closeLocked() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
}

// Addr reports the listener's bound address.
func (l *listener) Addr() net.Addr { return l.addr }

// conn is one endpoint of a simulated connection.
type conn struct {
	local  Addr
	remote Addr
	rd     *shapedPipe // inbound direction
	wr     *shapedPipe // outbound direction

	mu     sync.Mutex
	closed bool
}

var _ net.Conn = (*conn)(nil)

func (c *conn) Read(b []byte) (int, error)  { return c.rd.read(b) }
func (c *conn) Write(b []byte) (int, error) { return c.wr.write(b) }

// Close shuts down both directions: the peer's reads drain then return EOF,
// and local reads fail.
func (c *conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.wr.closeWrite()
	c.rd.closeRead()
	return nil
}

func (c *conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}
