package services

import (
	"context"
	"fmt"
	"net"
	"sync"

	"videopipe/internal/frame"
	"videopipe/internal/script"
	"videopipe/internal/wire"
)

// Wire protocol for remote service calls (the baseline architecture's "API
// calls to a remote server", paper Fig. 5):
//
//	request parts:  [service name][JSON args][encoded frame?]
//	response parts: [JSON result][encoded frame?]
//
// Arguments and results go to and from JSON through the script package's
// payload codec, straight from and into script values. Frames are
// codec-encoded for transfer — this encode/transfer/decode cost is exactly
// what co-location avoids.

// Server exposes a set of service pools over the wire layer.
type Server struct {
	responder *wire.Responder
	mu        sync.Mutex
	pools     map[string]*Pool
	codec     frame.Codec
}

// NewServer binds a service server at port (0 = ephemeral) serving the
// given pools.
func NewServer(t wire.Transport, port int, pools map[string]*Pool, codec frame.Codec) (*Server, error) {
	if codec == nil {
		codec = frame.JPEGCodec{}
	}
	if len(pools) == 0 {
		return nil, fmt.Errorf("services: server needs at least one pool")
	}
	owned := make(map[string]*Pool, len(pools))
	for n, p := range pools {
		owned[n] = p
	}
	s := &Server{pools: owned, codec: codec}
	resp, err := wire.ListenResponder(t, port, s.handle)
	if err != nil {
		return nil, fmt.Errorf("services: server: %w", err)
	}
	s.responder = resp
	return s, nil
}

// AddPool exposes another pool on a running server — the failover path:
// when a service is redeployed onto a device whose server is already
// bound, the new pool joins it instead of leaking a second listener.
func (s *Server) AddPool(name string, p *Pool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pools[name] = p
}

// Addr reports the server's bound address.
func (s *Server) Addr() net.Addr { return s.responder.Addr() }

// Close stops serving.
func (s *Server) Close() error { return s.responder.Close() }

func (s *Server) handle(ctx context.Context, m wire.Message) (wire.Message, error) {
	if m.Len() < 2 {
		return wire.Message{}, fmt.Errorf("services: malformed request (%d parts)", m.Len())
	}
	name := m.StringPart(0)
	s.mu.Lock()
	pool, ok := s.pools[name]
	s.mu.Unlock()
	if !ok {
		return wire.Message{}, fmt.Errorf("services: unknown service %q", name)
	}

	args, err := script.ParseJSONFields(m.Part(1))
	if err != nil {
		return wire.Message{}, fmt.Errorf("services: bad args: %w", err)
	}
	req := Request{Args: args}
	if m.Len() >= 3 && len(m.Part(2)) > 0 {
		f, err := s.codec.Decode(m.Part(2))
		if err != nil {
			return wire.Message{}, fmt.Errorf("services: bad frame payload: %w", err)
		}
		req.Frame = f
	}

	resp, err := pool.Invoke(ctx, req)
	// The decoded request frame exists only for this call; recycle it once
	// the handler is done (handlers that keep pixels clone the frame, so a
	// same-frame response would be an ownership bug — guard regardless).
	if req.Frame != nil && req.Frame != resp.Frame {
		req.Frame.Release()
	}
	if err != nil {
		return wire.Message{}, err
	}

	resultJSON, err := script.AppendJSON(nil, &script.Object{Fields: resp.Result})
	if err != nil {
		return wire.Message{}, fmt.Errorf("services: marshal result: %w", err)
	}
	out := wire.NewMessage(resultJSON)
	if resp.Frame != nil {
		// The encode buffer can't be pooled here: the responder still
		// references it while writing after this handler returns.
		data, err := s.codec.Encode(resp.Frame)
		resp.Frame.Release()
		if err != nil {
			return wire.Message{}, fmt.Errorf("services: encode result frame: %w", err)
		}
		out.Parts = append(out.Parts, data)
	}
	return out, nil
}

// Client calls remote services over the wire layer. Each service called
// through the client gets its own circuit breaker: when a service fails
// repeatedly (dead pool, partitioned host), the breaker opens and calls
// shed immediately instead of burning the RPC retry budget per frame; a
// half-open probe rediscovers the service once it heals.
type Client struct {
	caller *wire.Caller
	codec  frame.Codec

	breakerMu sync.Mutex
	breakers  map[string]*Breaker
	onState   func(service string, s BreakerState)
}

// NewClient creates a client for the service server at address.
func NewClient(t wire.Transport, address string, codec frame.Codec) *Client {
	if codec == nil {
		codec = frame.JPEGCodec{}
	}
	return &Client{
		caller:   wire.DialCaller(t, address),
		codec:    codec,
		breakers: make(map[string]*Breaker),
	}
}

// SetBreakerNotify installs a callback fired whenever any per-service
// breaker changes state. It applies to breakers created after the call;
// install it before the first Call.
func (c *Client) SetBreakerNotify(fn func(service string, s BreakerState)) {
	c.breakerMu.Lock()
	defer c.breakerMu.Unlock()
	c.onState = fn
}

// BreakerState reports the circuit state for a service; ok is false when
// the service has never been called through this client.
func (c *Client) BreakerState(service string) (BreakerState, bool) {
	c.breakerMu.Lock()
	defer c.breakerMu.Unlock()
	b, ok := c.breakers[service]
	if !ok {
		return 0, false
	}
	return b.State(), true
}

// breaker returns (creating on first use) the circuit for a service.
func (c *Client) breaker(service string) *Breaker {
	c.breakerMu.Lock()
	defer c.breakerMu.Unlock()
	b, ok := c.breakers[service]
	if !ok {
		b = NewBreaker(0, 0)
		if fn := c.onState; fn != nil {
			svc := service
			b.OnStateChange(func(s BreakerState) { fn(svc, s) })
		}
		c.breakers[service] = b
	}
	return b
}

// encHeaderRoom is space for the codec's frame header next to the pixels,
// so that a raw encode — the largest there is — fits the borrowed buffer.
const encHeaderRoom = 64

// Call invokes a remote service, encoding the frame (if any) for transfer.
// The input frame is borrowed — the caller keeps ownership.
func (c *Client) Call(ctx context.Context, service string, args map[string]script.Value, f *frame.Frame) (Response, error) {
	br := c.breaker(service)
	if !br.Allow() {
		return Response{}, fmt.Errorf("services: %s: %w", service, ErrBreakerOpen)
	}
	argsJSON, err := script.AppendJSON(nil, &script.Object{Fields: args})
	if err != nil {
		br.Cancel()
		return Response{}, fmt.Errorf("services: marshal args: %w", err)
	}
	req := wire.NewMessage([]byte(service), argsJSON)
	if f != nil {
		// Borrowed from the one recycler until Call returns, on every
		// path: the caller copies it into the socket's scratch during the
		// (synchronous) write. If an encode outgrew it all the same, data
		// is the collector's and buf still goes back.
		buf := frame.Pool.GetDirty(len(f.Pix) + encHeaderRoom)
		defer frame.Pool.Put(buf)
		data, err := frame.AppendEncode(c.codec, buf[:0], f)
		if err != nil {
			br.Cancel()
			return Response{}, fmt.Errorf("services: encode frame: %w", err)
		}
		req.Parts = append(req.Parts, data)
	}

	out, err := c.caller.Call(ctx, req)
	br.Record(err == nil)
	if err != nil {
		return Response{}, err
	}
	if out.Len() < 1 {
		return Response{}, fmt.Errorf("services: empty response")
	}
	result, err := script.ParseJSONFields(out.Part(0))
	if err != nil {
		return Response{}, fmt.Errorf("services: bad result payload: %w", err)
	}
	resp := Response{Result: result}
	if out.Len() >= 2 && len(out.Part(1)) > 0 {
		rf, err := c.codec.Decode(out.Part(1))
		if err != nil {
			return Response{}, fmt.Errorf("services: bad result frame: %w", err)
		}
		resp.Frame = rf
	}
	return resp, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.caller.Close() }
