package wire

import "net"

// Transport abstracts the byte-stream fabric a socket runs over. The netsim
// package's *Host satisfies it for simulated networks.
type Transport interface {
	// Listen binds a listener on the local device. Port 0 requests an
	// ephemeral port; the chosen port is available from the listener's Addr.
	Listen(port int) (net.Listener, error)
	// Dial connects to a remote "host:port" address.
	Dial(address string) (net.Conn, error)
}
