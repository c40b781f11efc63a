package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/netsim"
)

func testNet() *netsim.Network {
	return netsim.NewNetwork(netsim.LinkProfile{})
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pattern is one of the two socket patterns reduced to what their shared
// lifecycle can be asked: bind the listening side, make the dialing side,
// move one payload across. The lifecycle cases (connect race, use after
// close, reconnect after the peer restarts, close disconnects the peers)
// are written once against it and run over both rows; what Push/Pull and
// Caller/Responder add on top of the lifecycle keeps its own tests.
type pattern struct {
	name   string
	listen func(tp Transport, port int) (*listening, error)
	// dial makes the dialing socket. send returns once the payload is
	// handed to the transport (Push) or answered with its echo (Caller).
	dial func(tp Transport, addr string) (send func(context.Context, string) error, closeDialer func() error)
}

// listening is a bound Pull or Responder: the lifecycle they share, the
// socket's own Close, and every payload that reaches the socket.
type listening struct {
	acc   *acceptor
	close func() error
	got   <-chan string
}

// tracked reports how many connections the listener holds.
func (l *listening) tracked() int {
	l.acc.mu.Lock()
	defer l.acc.mu.Unlock()
	return len(l.acc.conns)
}

// gotBuffer is room for every payload a lifecycle case sends before it
// starts reading got.
const gotBuffer = 64

var pushPull = pattern{
	name: "push-pull",
	listen: func(tp Transport, port int) (*listening, error) {
		p, err := ListenPull(tp, port)
		if err != nil {
			return nil, err
		}
		got := make(chan string, gotBuffer)
		go func() {
			for {
				m, err := p.Recv(context.Background())
				if err != nil {
					return
				}
				s := m.StringPart(0)
				m.Release()
				select {
				case got <- s:
				case <-p.done:
					return
				}
			}
		}()
		return &listening{&p.acceptor, p.Close, got}, nil
	},
	dial: func(tp Transport, addr string) (func(context.Context, string) error, func() error) {
		p := DialPush(tp, addr)
		return func(ctx context.Context, s string) error { return p.Send(ctx, NewMessage([]byte(s))) }, p.Close
	},
}

var callerResponder = pattern{
	name: "caller-responder",
	listen: func(tp Transport, port int) (*listening, error) {
		got := make(chan string, gotBuffer)
		r, err := ListenResponder(tp, port, func(_ context.Context, req Message) (Message, error) {
			select {
			case got <- req.StringPart(0):
			default:
			}
			return req, nil
		})
		if err != nil {
			return nil, err
		}
		return &listening{&r.acceptor, r.Close, got}, nil
	},
	dial: func(tp Transport, addr string) (func(context.Context, string) error, func() error) {
		c := DialCaller(tp, addr)
		return func(ctx context.Context, s string) error {
			out, err := c.Call(ctx, NewMessage([]byte(s)))
			if err == nil && out.StringPart(0) != s {
				err = fmt.Errorf("call %q answered %q", s, out.StringPart(0))
			}
			return err
		}, c.Close
	},
}

var patterns = []pattern{pushPull, callerResponder}

func forEachPattern(t *testing.T, body func(*testing.T, pattern)) {
	for _, p := range patterns {
		t.Run(p.name, func(t *testing.T) { body(t, p) })
	}
}

// rendezvous is a Transport whose Dials all return together, so senders
// racing to connect really do each dial a connection.
type rendezvous struct {
	Transport
	dials *sync.WaitGroup
}

func (r rendezvous) Dial(address string) (net.Conn, error) {
	conn, err := r.Transport.Dial(address)
	r.dials.Done()
	r.dials.Wait()
	return conn, err
}

// Senders that find no connection each dial one; exactly one is kept, the
// losers close theirs and send on the winner's.
func TestConnectRaceKeepsOneConnection(t *testing.T) {
	forEachPattern(t, func(t *testing.T, p pattern) {
		nw := testNet()
		l, err := p.listen(nw.Host("desktop"), 0)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer l.close()

		const senders = 8
		var dials sync.WaitGroup
		dials.Add(senders)
		send, closeDialer := p.dial(rendezvous{nw.Host("phone"), &dials}, l.acc.Addr().String())
		defer closeDialer()

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := send(ctx, fmt.Sprint(i)); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < senders; i++ {
			select {
			case <-l.got:
			case <-ctx.Done():
				t.Fatalf("%d of %d payloads arrived", i, senders)
			}
		}
		waitFor(t, "the losing connections to be closed", func() bool { return l.tracked() == 1 })
	})
}

// testUseAfterClose: a closed dialing socket refuses with ErrClosed, both
// a send that starts after Close and one Close finds retrying.
func testUseAfterClose(t *testing.T, p pattern) {
	nw := testNet()
	send, closeDialer := p.dial(nw.Host("phone"), "desktop:1") // nothing listens
	retrying := make(chan error, 1)
	go func() { retrying <- send(context.Background(), "x") }()
	time.Sleep(20 * time.Millisecond) // let a few dial attempts fail
	closeDialer()
	select {
	case err := <-retrying:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("send interrupted by Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not end a retrying send")
	}
	if err := send(context.Background(), "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("send after Close = %v, want ErrClosed", err)
	}
}

func TestPushSendAfterCloseFails(t *testing.T) { testUseAfterClose(t, pushPull) }

func TestCallerCloseFailsCalls(t *testing.T) { testUseAfterClose(t, callerResponder) }

func TestPushPullBasic(t *testing.T) {
	nw := testNet()
	pull, err := ListenPull(nw.Host("desktop"), 0)
	if err != nil {
		t.Fatalf("ListenPull: %v", err)
	}
	defer pull.Close()

	push := DialPush(nw.Host("phone"), pull.Addr().String())
	defer push.Close()

	ctx := context.Background()
	if err := push.Send(ctx, NewMessage([]byte("frame"), []byte("1"))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := pull.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.StringPart(0) != "frame" || m.StringPart(1) != "1" {
		t.Errorf("Recv = %v, want [frame 1]", m)
	}
}

func TestPushPullManyMessagesInOrder(t *testing.T) {
	nw := testNet()
	pull, err := ListenPull(nw.Host("desktop"), 0)
	if err != nil {
		t.Fatalf("ListenPull: %v", err)
	}
	defer pull.Close()
	push := DialPush(nw.Host("phone"), pull.Addr().String())
	defer push.Close()

	ctx := context.Background()
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			if err := push.Send(ctx, NewMessage([]byte(fmt.Sprint(i)))); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := pull.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got := m.StringPart(0); got != fmt.Sprint(i) {
			t.Fatalf("message %d = %q, out of order", i, got)
		}
	}
}

func TestPushConnectsLazilyAndRetries(t *testing.T) {
	nw := testNet()
	// Push created before any listener exists.
	push := DialPush(nw.Host("phone"), "desktop:7001")
	defer push.Close()

	sent := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sent <- push.Send(ctx, NewMessage([]byte("late")))
	}()

	time.Sleep(20 * time.Millisecond) // let a few dial attempts fail
	pull, err := ListenPull(nw.Host("desktop"), 7001)
	if err != nil {
		t.Fatalf("ListenPull: %v", err)
	}
	defer pull.Close()

	m, err := pull.Recv(context.Background())
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.StringPart(0) != "late" {
		t.Errorf("Recv = %q, want late", m.StringPart(0))
	}
	if err := <-sent; err != nil {
		t.Errorf("Send: %v", err)
	}
}

func TestPushSendContextCancelled(t *testing.T) {
	nw := testNet()
	push := DialPush(nw.Host("phone"), "desktop:9") // nothing listening
	defer push.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := push.Send(ctx, NewMessage([]byte("x"))); err == nil {
		t.Error("Send with no listener and expired ctx succeeded")
	}
}

func TestPullFairMergesMultiplePushers(t *testing.T) {
	nw := testNet()
	pull, err := ListenPull(nw.Host("desktop"), 0)
	if err != nil {
		t.Fatalf("ListenPull: %v", err)
	}
	defer pull.Close()

	ctx := context.Background()
	const senders, per = 4, 25
	for s := 0; s < senders; s++ {
		push := DialPush(nw.Host(fmt.Sprintf("device%d", s)), pull.Addr().String())
		defer push.Close()
		go func(s int, push *Push) {
			for i := 0; i < per; i++ {
				if err := push.Send(ctx, NewMessage([]byte(fmt.Sprint(s)))); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s, push)
	}

	counts := map[string]int{}
	for i := 0; i < senders*per; i++ {
		m, err := pull.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		counts[m.StringPart(0)]++
	}
	for s := 0; s < senders; s++ {
		if got := counts[fmt.Sprint(s)]; got != per {
			t.Errorf("sender %d delivered %d messages, want %d", s, got, per)
		}
	}
}

func TestPullRecvAfterClose(t *testing.T) {
	nw := testNet()
	pull, err := ListenPull(nw.Host("desktop"), 0)
	if err != nil {
		t.Fatalf("ListenPull: %v", err)
	}
	pull.Close()
	if _, err := pull.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after Close = %v, want ErrClosed", err)
	}
}

func TestPullRecvContext(t *testing.T) {
	nw := testNet()
	pull, err := ListenPull(nw.Host("desktop"), 0)
	if err != nil {
		t.Fatalf("ListenPull: %v", err)
	}
	defer pull.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := pull.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Recv = %v, want DeadlineExceeded", err)
	}
}

func TestCallerResponderBasic(t *testing.T) {
	nw := testNet()
	resp, err := ListenResponder(nw.Host("desktop"), 0, func(_ context.Context, req Message) (Message, error) {
		return NewMessage([]byte("echo:" + req.StringPart(0))), nil
	})
	if err != nil {
		t.Fatalf("ListenResponder: %v", err)
	}
	defer resp.Close()

	caller := DialCaller(nw.Host("phone"), resp.Addr().String())
	defer caller.Close()

	out, err := caller.Call(context.Background(), NewMessage([]byte("hi")))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out.StringPart(0) != "echo:hi" {
		t.Errorf("Call = %q, want echo:hi", out.StringPart(0))
	}
}

func TestCallerRemoteError(t *testing.T) {
	nw := testNet()
	resp, err := ListenResponder(nw.Host("desktop"), 0, func(_ context.Context, _ Message) (Message, error) {
		return Message{}, errors.New("model exploded")
	})
	if err != nil {
		t.Fatalf("ListenResponder: %v", err)
	}
	defer resp.Close()

	caller := DialCaller(nw.Host("phone"), resp.Addr().String())
	defer caller.Close()

	_, err = caller.Call(context.Background(), NewMessage([]byte("x")))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("Call error = %v, want RemoteError", err)
	}
	if remote.Msg != "model exploded" {
		t.Errorf("remote msg = %q", remote.Msg)
	}
}

func TestCallerConcurrentCallsMultiplex(t *testing.T) {
	nw := testNet()
	var inFlight, peak int64
	resp, err := ListenResponder(nw.Host("desktop"), 0, func(_ context.Context, req Message) (Message, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return req, nil
	})
	if err != nil {
		t.Fatalf("ListenResponder: %v", err)
	}
	defer resp.Close()

	caller := DialCaller(nw.Host("phone"), resp.Addr().String())
	defer caller.Close()

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := caller.Call(context.Background(), NewMessage([]byte(fmt.Sprint(i))))
			if err != nil {
				t.Errorf("Call %d: %v", i, err)
				return
			}
			if out.StringPart(0) != fmt.Sprint(i) {
				t.Errorf("Call %d returned %q: responses crossed", i, out.StringPart(0))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if atomic.LoadInt64(&peak) < 2 {
		t.Errorf("peak concurrency = %d, want >= 2 (requests must multiplex)", peak)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("8 concurrent 20ms calls took %v; requests appear serialized", elapsed)
	}
}

// testReconnectsAfterPeerRestart: the listening side goes away and comes
// back on the same port; the dialing socket's connection dies with it and
// the next sends must reconnect by themselves.
func testReconnectsAfterPeerRestart(t *testing.T, p pattern, port int) {
	nw := testNet()
	l, err := p.listen(nw.Host("desktop"), port)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	send, closeDialer := p.dial(nw.Host("phone"), fmt.Sprintf("desktop:%d", port))
	defer closeDialer()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := send(ctx, "one"); err != nil {
		t.Fatalf("first send: %v", err)
	}
	select {
	case s := <-l.got:
		if s != "one" {
			t.Fatalf("got %q, want one", s)
		}
	case <-ctx.Done():
		t.Fatal("first payload never arrived")
	}

	l.close()
	l2, err := p.listen(nw.Host("desktop"), port)
	if err != nil {
		t.Fatalf("restart listen: %v", err)
	}
	defer l2.close()

	// A one-way send may land on the dead connection (netsim buffers the
	// write), so keep sending until one arrives at the new socket; a call
	// is answered or retried by the caller, so its first send is that one.
	for i := 0; ; i++ {
		if err := send(ctx, fmt.Sprintf("retry%d", i)); err != nil {
			t.Fatalf("send after restart: %v", err)
		}
		select {
		case s := <-l2.got:
			if !strings.HasPrefix(s, "retry") {
				t.Errorf("got %q", s)
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		if ctx.Err() != nil {
			t.Fatal("never reconnected")
		}
	}
}

func TestPushReconnectsAfterPullRestart(t *testing.T) {
	testReconnectsAfterPeerRestart(t, pushPull, 7200)
}

func TestCallerReconnectsAfterResponderRestart(t *testing.T) {
	testReconnectsAfterPeerRestart(t, callerResponder, 7100)
}

// Close on the listening side hangs up on every peer and returns only once
// every goroutine the socket started has exited.
func TestListenerCloseDisconnectsPeersAndJoins(t *testing.T) {
	forEachPattern(t, func(t *testing.T, p pattern) {
		nw := testNet()
		before := runtime.NumGoroutine()
		l, err := p.listen(nw.Host("desktop"), 0)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		peers := make([]net.Conn, 3)
		for i := range peers {
			if peers[i], err = nw.Host("phone").Dial(l.acc.Addr().String()); err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer peers[i].Close()
		}
		waitFor(t, "the peers to be accepted", func() bool { return l.tracked() == len(peers) })

		if err := l.close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if n := l.tracked(); n != 0 {
			t.Errorf("%d connections still tracked after Close", n)
		}
		for i, conn := range peers {
			hungUp := make(chan error, 1)
			go func() {
				_, err := conn.Read(make([]byte, 1))
				hungUp <- err
			}()
			select {
			case err := <-hungUp:
				if err == nil {
					t.Errorf("peer %d read data from a closed socket", i)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("peer %d was not disconnected", i)
			}
			conn.Close()
		}
		waitFor(t, "the socket's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	})
}

// A connection that a caller closes costs the responder nothing once it is
// gone: no goroutine stays behind per dial-call-close cycle.
func TestResponderReleasesClosedConnections(t *testing.T) {
	nw := testNet()
	resp, err := ListenResponder(nw.Host("desktop"), 0, func(_ context.Context, req Message) (Message, error) {
		return req, nil
	})
	if err != nil {
		t.Fatalf("ListenResponder: %v", err)
	}
	defer resp.Close()
	cycle := func() {
		c := DialCaller(nw.Host("phone"), resp.Addr().String())
		defer c.Close()
		if _, err := c.Call(context.Background(), NewMessage([]byte("x"))); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	settled := func() bool {
		resp.mu.Lock()
		defer resp.mu.Unlock()
		return len(resp.conns) == 0
	}

	cycle()
	waitFor(t, "the first connection to be forgotten", settled)
	before := runtime.NumGoroutine()
	const cycles = 50
	for i := 0; i < cycles; i++ {
		cycle()
	}
	waitFor(t, "the connections to be forgotten", settled)
	leaked := func() int { return runtime.NumGoroutine() - before }
	for deadline := time.Now().Add(2 * time.Second); leaked() > 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := leaked(); n > 0 {
		t.Errorf("%d goroutines left behind by %d dial-call-close cycles", n, cycles)
	}
}

// Pull.Close hands back the bodies nobody will receive: the message parked
// for Recv and the one its read loop is holding behind it.
func TestBufferPoolPullCloseReleasesParked(t *testing.T) {
	nw := testNet()
	pull, err := ListenPull(nw.Host("desktop"), 0)
	if err != nil {
		t.Fatalf("ListenPull: %v", err)
	}
	push := DialPush(nw.Host("phone"), pull.Addr().String())
	defer push.Close()

	outstanding := frame.Pool.Outstanding()
	for _, s := range []string{"parked", "held"} {
		if err := push.Send(context.Background(), NewMessage([]byte(s))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, "both bodies to be read", func() bool { return frame.Pool.Outstanding() == outstanding+2 && len(pull.msgs) == 1 })
	pull.Close()
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d after Pull.Close, want 0", got)
	}
}

// Caller.Close fails the calls it finds waiting for an answer.
func TestCallerCloseFailsInFlightCalls(t *testing.T) {
	nw := testNet()
	r := slowResponder(t, nw, time.Hour)
	c := DialCaller(nw.Host("phone"), r.Addr().String())
	inFlight := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), NewMessage([]byte("x")))
		inFlight <- err
	}()
	waitFor(t, "the call to be sent", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == 1
	})
	c.Close()
	select {
	case err := <-inFlight:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("in-flight Call = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not end the in-flight call")
	}
}

func TestResponderNilHandler(t *testing.T) {
	nw := testNet()
	if _, err := ListenResponder(nw.Host("desktop"), 0, nil); err == nil {
		t.Error("ListenResponder(nil) succeeded")
	}
}

// loopback is a real-TCP Transport on 127.0.0.1: the two cases below run
// the sockets over the kernel's stack rather than netsim.
type loopback struct{}

func (loopback) Listen(port int) (net.Listener, error) {
	return net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)))
}

func (loopback) Dial(address string) (net.Conn, error) { return net.Dial("tcp", address) }

func TestCallerResponderOverRealTCP(t *testing.T) {
	tp := loopback{}
	resp, err := ListenResponder(tp, 0, func(_ context.Context, req Message) (Message, error) {
		return NewMessage([]byte("tcp:" + req.StringPart(0))), nil
	})
	if err != nil {
		t.Skipf("real TCP unavailable: %v", err)
	}
	defer resp.Close()

	caller := DialCaller(loopback{}, resp.Addr().String())
	defer caller.Close()
	out, err := caller.Call(context.Background(), NewMessage([]byte("ping")))
	if err != nil {
		t.Fatalf("Call over TCP: %v", err)
	}
	if out.StringPart(0) != "tcp:ping" {
		t.Errorf("Call = %q", out.StringPart(0))
	}
}

func TestPushPullOverRealTCP(t *testing.T) {
	tp := loopback{}
	pull, err := ListenPull(tp, 0)
	if err != nil {
		t.Skipf("real TCP unavailable: %v", err)
	}
	defer pull.Close()
	push := DialPush(loopback{}, pull.Addr().String())
	defer push.Close()
	if err := push.Send(context.Background(), NewMessage([]byte("over-tcp"))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := pull.Recv(context.Background())
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.StringPart(0) != "over-tcp" {
		t.Errorf("Recv = %q", m.StringPart(0))
	}
}

func TestCallerAddressAndRemoteErrorText(t *testing.T) {
	nw := testNet()
	caller := DialCaller(nw.Host("phone"), "desktop:42")
	defer caller.Close()
	if caller.address != "desktop:42" {
		t.Errorf("address = %q", caller.address)
	}
	e := &RemoteError{Msg: "boom"}
	if !strings.Contains(e.Error(), "boom") {
		t.Errorf("RemoteError.Error = %q", e.Error())
	}
}
