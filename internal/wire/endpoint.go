package wire

import (
	"fmt"
	"strconv"
	"strings"
)

// EndpointMode distinguishes the two sides of an endpoint declaration.
type EndpointMode int

// Endpoint modes. Enums start at one so the zero value is invalid and
// detectable.
const (
	// Bind listens at the endpoint address.
	Bind EndpointMode = iota + 1
	// Connect dials the endpoint address.
	Connect
)

// String renders the mode in the Listing-1 config grammar.
func (m EndpointMode) String() string {
	switch m {
	case Bind:
		return "bind"
	case Connect:
		return "connect"
	default:
		return fmt.Sprintf("EndpointMode(%d)", int(m))
	}
}

// Endpoint is a parsed endpoint declaration from a pipeline configuration,
// e.g. "bind#tcp://*:5861" or "connect#tcp://desktop:5861" (the grammar from
// the paper's Listing 1).
type Endpoint struct {
	// Mode says whether this side binds or connects.
	Mode EndpointMode
	// Proto is the transport protocol; only "tcp" is currently defined.
	Proto string
	// Host is the peer or interface name. "*" means all local interfaces
	// and is valid only with Bind.
	Host string
	// Port is the TCP port.
	Port int
}

// ParseEndpoint parses the "mode#proto://host:port" endpoint grammar.
func ParseEndpoint(s string) (Endpoint, error) {
	modeStr, rest, ok := strings.Cut(s, "#")
	if !ok {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: missing '#' separator", s)
	}
	var mode EndpointMode
	switch modeStr {
	case "bind":
		mode = Bind
	case "connect":
		mode = Connect
	default:
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: unknown mode %q", s, modeStr)
	}

	proto, addr, ok := strings.Cut(rest, "://")
	if !ok {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: missing '://'", s)
	}
	if proto != "tcp" {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: unsupported protocol %q", s, proto)
	}

	hostStr, portStr, ok := cutLast(addr, ":")
	if !ok {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: missing port", s)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: invalid port %q", s, portStr)
	}
	if hostStr == "" {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: empty host", s)
	}
	if hostStr == "*" && mode != Bind {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: wildcard host requires bind mode", s)
	}

	return Endpoint{Mode: mode, Proto: proto, Host: hostStr, Port: port}, nil
}

// cutLast splits s at the final occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// String renders the endpoint back in config grammar.
func (e Endpoint) String() string {
	return fmt.Sprintf("%s#%s://%s:%d", e.Mode, e.Proto, e.Host, e.Port)
}
