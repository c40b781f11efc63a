package netsim

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fastNet returns a network with near-zero delays for functional tests.
func fastNet() *Network {
	return NewNetwork(LinkProfile{Latency: 0, Bandwidth: 0})
}

// dialPair returns a connected client/server conn pair on nw.
func dialPair(t *testing.T, nw *Network, from, to string) (client, server net.Conn) {
	t.Helper()
	l, err := nw.Listen(to, 0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		server = c
	}()
	client, err = nw.Dial(from, l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	<-done
	if server == nil {
		t.Fatal("no server conn")
	}
	return client, server
}

func TestDialTransferAndEOF(t *testing.T) {
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")

	msg := []byte("hello from the phone")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 64)
	n, err := server.Read(buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Errorf("Read = %q, want %q", buf[:n], msg)
	}

	// Close client: server drains then sees EOF.
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := server.Read(buf); err != io.EOF {
		t.Errorf("Read after peer close = %v, want io.EOF", err)
	}
}

func TestBidirectional(t *testing.T) {
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatalf("server Write: %v", err)
	}
	buf := make([]byte, 16)
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("client Read = %q, %v; want pong", buf[:n], err)
	}
}

func TestDialRefused(t *testing.T) {
	nw := fastNet()
	if _, err := nw.Dial("phone", "desktop:9999"); err == nil {
		t.Error("Dial to unbound port succeeded, want refusal")
	}
}

func TestListenPortInUse(t *testing.T) {
	nw := fastNet()
	l, err := nw.Listen("desktop", 5000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	if _, err := nw.Listen("desktop", 5000); err == nil {
		t.Error("second Listen on same port succeeded, want error")
	}
	// Same port on a different host is fine.
	l2, err := nw.Listen("tv", 5000)
	if err != nil {
		t.Errorf("Listen on other host: %v", err)
	} else {
		l2.Close()
	}
}

func TestListenPortReuseAfterClose(t *testing.T) {
	nw := fastNet()
	l, err := nw.Listen("desktop", 5000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	l.Close()
	l2, err := nw.Listen("desktop", 5000)
	if err != nil {
		t.Errorf("Listen after close: %v", err)
	} else {
		l2.Close()
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	nw := fastNet()
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		l, err := nw.Listen("desktop", 0)
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		defer l.Close()
		addr := l.Addr().String()
		if seen[addr] {
			t.Errorf("duplicate ephemeral address %s", addr)
		}
		seen[addr] = true
	}
}

func TestLatencyShaping(t *testing.T) {
	nw := NewNetwork(LinkProfile{Latency: 20 * time.Millisecond})
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	start := time.Now()
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Errorf("one-way delivery took %v, want >= 20ms", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("one-way delivery took %v, suspiciously slow", elapsed)
	}
}

func TestBandwidthShaping(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100ms of serialization.
	nw := NewNetwork(LinkProfile{Bandwidth: 10_000_000})
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	payload := make([]byte, 1_000_000)
	start := time.Now()
	go func() {
		client.Write(payload)
	}()
	got := 0
	buf := make([]byte, 64<<10)
	for got < len(payload) {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got += n
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Errorf("1MB at 10MB/s arrived in %v, want >= ~100ms", elapsed)
	}
}

func TestIntraHostUsesLoopback(t *testing.T) {
	nw := NewNetwork(LinkProfile{Latency: 50 * time.Millisecond})
	client, server := dialPair(t, nw, "desktop", "desktop")
	defer client.Close()
	defer server.Close()

	start := time.Now()
	client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("loopback delivery took %v, want fast", elapsed)
	}
}

// TestSetLinkOverridesDefault: a link's own profile (Shape) overrides the
// network default.
func TestSetLinkOverridesDefault(t *testing.T) {
	nw := NewNetwork(LinkProfile{Latency: 50 * time.Millisecond})
	nw.Shape("phone", "desktop", LinkProfile{Latency: 0})
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	start := time.Now()
	client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Millisecond {
		t.Errorf("overridden link delivery took %v, want fast", elapsed)
	}
}

func TestReadDeadline(t *testing.T) {
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	server.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := server.Read(buf)
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Errorf("Read with expired deadline = %v, want net.Error timeout", err)
	}

	// Clearing the deadline allows reads again.
	server.SetReadDeadline(time.Time{})
	client.Write([]byte("y"))
	if _, err := server.Read(buf); err != nil {
		t.Errorf("Read after deadline cleared: %v", err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer server.Close()
	client.Close()
	if _, err := client.Write([]byte("x")); err == nil {
		t.Error("Write after Close succeeded, want error")
	}
}

func TestAcceptAfterListenerClose(t *testing.T) {
	nw := fastNet()
	l, err := nw.Listen("desktop", 0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Accept returned nil after Close")
		}
	case <-time.After(time.Second):
		t.Error("Accept did not return after Close")
	}
}

func TestNetworkClose(t *testing.T) {
	nw := fastNet()
	l, _ := nw.Listen("desktop", 0)
	addr := l.Addr().String()
	nw.Close()
	if _, err := nw.Dial("phone", addr); err == nil {
		t.Error("Dial on closed network succeeded")
	}
	if _, err := nw.Listen("tv", 0); err == nil {
		t.Error("Listen on closed network succeeded")
	}
}

func TestAddrs(t *testing.T) {
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	if got := client.RemoteAddr().String(); got != server.LocalAddr().String() {
		t.Errorf("client.RemoteAddr=%s, server.LocalAddr=%s; want equal", got, server.LocalAddr())
	}
	if host, _, err := net.SplitHostPort(client.LocalAddr().String()); err != nil || host != "phone" {
		t.Errorf("client.LocalAddr=%s, want phone:*", client.LocalAddr())
	}
}

// TestParseAddress: Dial reads a "host:port" address and refuses one it
// cannot parse.
func TestParseAddress(t *testing.T) {
	nw := fastNet()
	l, err := nw.Listen("desktop", 5861)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	c, err := nw.Dial("phone", "desktop:5861")
	if err != nil {
		t.Fatalf("Dial(desktop:5861): %v", err)
	}
	c.Close()
	for _, bad := range []string{"nonsense", "host:notaport"} {
		if _, err := nw.Dial("phone", bad); err == nil {
			t.Errorf("Dial(%s) succeeded", bad)
		}
	}
}

func TestConcurrentConnections(t *testing.T) {
	nw := fastNet()
	l, err := nw.Listen("desktop", 0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	// Echo server.
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := nw.Dial("phone", l.Addr().String())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 1000)
			if _, err := c.Write(msg); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Errorf("ReadFull: %v", err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("echo mismatch for conn %d", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestDataIntegrityProperty(t *testing.T) {
	// Property: any sequence of writes is received intact and in order,
	// regardless of chunk boundaries, with jitter and loss enabled.
	nw := NewNetwork(LinkProfile{
		Latency: 100 * time.Microsecond,
		Jitter:  100 * time.Microsecond,
		Loss:    0.05,
	})
	client, server := dialPair(t, nw, "phone", "desktop")
	defer server.Close()

	check := func(parts [][]byte) bool {
		var want []byte
		for _, p := range parts {
			want = append(want, p...)
		}
		done := make(chan []byte, 1)
		go func() {
			got := make([]byte, len(want))
			if len(want) > 0 {
				if _, err := io.ReadFull(server, got); err != nil {
					done <- nil
					return
				}
			}
			done <- got
		}()
		for _, p := range parts {
			if len(p) == 0 {
				continue
			}
			if _, err := client.Write(p); err != nil {
				return false
			}
		}
		got := <-done
		return got != nil && bytes.Equal(got, want)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
	client.Close()
}

func TestProfileTxDelay(t *testing.T) {
	p := LinkProfile{Bandwidth: 1000}
	if got, want := p.txDelay(1000), time.Second; got != want {
		t.Errorf("txDelay(1000) = %v, want %v", got, want)
	}
	if got := (LinkProfile{}).txDelay(1000); got != 0 {
		t.Errorf("unlimited txDelay = %v, want 0", got)
	}
	if got := p.txDelay(0); got != 0 {
		t.Errorf("txDelay(0) = %v, want 0", got)
	}
}

func TestProfileRTT(t *testing.T) {
	p := LinkProfile{Latency: 5 * time.Millisecond}
	if got, want := p.RTT(), 10*time.Millisecond; got != want {
		t.Errorf("RTT() = %v, want %v", got, want)
	}
}

func TestLargeTransferBackpressure(t *testing.T) {
	// Transfer larger than maxBuffered must still complete (writer blocks
	// until the reader drains).
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	total := maxBuffered + 1<<20
	go func() {
		payload := make([]byte, 256<<10)
		sent := 0
		for sent < total {
			n := len(payload)
			if total-sent < n {
				n = total - sent
			}
			if _, err := client.Write(payload[:n]); err != nil {
				return
			}
			sent += n
		}
	}()

	got := 0
	buf := make([]byte, 256<<10)
	deadline := time.Now().Add(10 * time.Second)
	for got < total {
		if time.Now().After(deadline) {
			t.Fatalf("transfer stalled at %d/%d bytes", got, total)
		}
		n, err := server.Read(buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got += n
	}
}

func TestLossAddsRetransmitDelay(t *testing.T) {
	// With Loss=1 every chunk pays one extra RTT; data still arrives
	// intact (TCP semantics: loss is delay, not corruption).
	nw := NewNetwork(LinkProfile{Latency: 5 * time.Millisecond, Loss: 1.0})
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	start := time.Now()
	client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Expected: latency (5ms) + penalty RTT (10ms) = 15ms minimum.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("lossy delivery took %v, want >= 15ms", elapsed)
	}
	if buf[0] != 'x' {
		t.Error("data corrupted by loss model")
	}
}

func TestWriteDeadline(t *testing.T) {
	// Fill the pipe buffer with an unread bulk write, then a deadline-bound
	// write must time out rather than block forever.
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	go client.Write(make([]byte, maxBuffered)) // fills the buffer
	time.Sleep(20 * time.Millisecond)
	client.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := client.Write(make([]byte, 1024))
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Errorf("Write past full buffer = %v, want timeout", err)
	}
}

func TestJitterVariesDelivery(t *testing.T) {
	// With large jitter, chunk delays vary; measure spread over several
	// one-byte messages.
	nw := NewNetwork(LinkProfile{Latency: time.Millisecond, Jitter: 20 * time.Millisecond})
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	var minD, maxD time.Duration
	buf := make([]byte, 1)
	for i := 0; i < 10; i++ {
		start := time.Now()
		client.Write([]byte{byte(i)})
		if _, err := server.Read(buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		d := time.Since(start)
		if i == 0 || d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD-minD < 2*time.Millisecond {
		t.Errorf("jitter spread = %v, want visible variation", maxD-minD)
	}
}

func TestPartitionSeversAndHealRestores(t *testing.T) {
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer server.Close()

	if nw.Partitioned("phone", "desktop") {
		t.Fatal("partitioned before Partition")
	}
	nw.Partition("phone", "desktop")
	if !nw.Partitioned("desktop", "phone") {
		t.Error("Partitioned not symmetric")
	}

	// Established connection is severed: reads fail or EOF promptly.
	buf := make([]byte, 1)
	server.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	if _, err := server.Read(buf); err == nil {
		t.Error("read succeeded across severed connection")
	}
	// Writes on the severed client fail.
	if _, err := client.Write([]byte("x")); err == nil {
		t.Error("write succeeded across severed connection")
	}
	// New dials refused.
	l, err := nw.Listen("desktop", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := nw.Dial("phone", l.Addr().String()); err == nil {
		t.Error("dial succeeded across partition")
	}
	// Other pairs unaffected.
	c2, s2 := dialPair(t, nw, "tv", "desktop")
	c2.Close()
	s2.Close()

	nw.Heal("phone", "desktop")
	c3, err := nw.Dial("phone", l.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c3.Close()
}

func TestConnTrackingPrunes(t *testing.T) {
	nw := fastNet()
	l, _ := nw.Listen("desktop", 0)
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	for i := 0; i < 50; i++ {
		c, err := nw.Dial("phone", l.Addr().String())
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		c.Close()
	}
	// The server side closes asynchronously; give it a moment, then one
	// final dial triggers the prune pass.
	time.Sleep(50 * time.Millisecond)
	if c, err := nw.Dial("phone", l.Addr().String()); err == nil {
		defer c.Close()
	}
	nw.mu.Lock()
	n := len(nw.conns[makePair("phone", "desktop")])
	nw.mu.Unlock()
	if n > 10 {
		t.Errorf("tracking %d conns after 50 closed dials; pruning broken", n)
	}
}

func TestShapeAffectsEstablishedConnections(t *testing.T) {
	nw := fastNet()
	client, server := dialPair(t, nw, "phone", "desktop")
	defer client.Close()
	defer server.Close()

	roundTrip := func() time.Duration {
		start := time.Now()
		if _, err := client.Write([]byte("x")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		buf := make([]byte, 1)
		if _, err := server.Read(buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		return time.Since(start)
	}

	if d := roundTrip(); d > 50*time.Millisecond {
		t.Fatalf("unshaped delivery took %v", d)
	}

	// A latency spike applied mid-connection must slow the existing pipe.
	nw.Shape("phone", "desktop", LinkProfile{Latency: 30 * time.Millisecond})
	if !nw.Shaped("phone", "desktop") {
		t.Fatal("Shaped not reported after Shape")
	}
	if d := roundTrip(); d < 30*time.Millisecond {
		t.Errorf("shaped delivery took %v, want >= 30ms", d)
	}

	// Clearing the shape restores the configured (fast) profile.
	nw.ClearShape("phone", "desktop")
	if nw.Shaped("phone", "desktop") {
		t.Fatal("Shaped still reported after ClearShape")
	}
	if d := roundTrip(); d > 50*time.Millisecond {
		t.Errorf("delivery after ClearShape took %v", d)
	}
}
