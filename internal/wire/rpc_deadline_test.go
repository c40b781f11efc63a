package wire

import (
	"context"
	"errors"
	"testing"
	"time"

	"videopipe/internal/netsim"
)

// slowResponder binds a responder on "desktop" whose handler blocks for d
// before echoing.
func slowResponder(t *testing.T, nw *netsim.Network, d time.Duration) *Responder {
	t.Helper()
	r, err := ListenResponder(nw.Host("desktop"), 0, func(ctx context.Context, req Message) (Message, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
		return req, nil
	})
	if err != nil {
		t.Fatalf("ListenResponder: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestCallTimesOutDuringPartition is the headline resilience contract: a
// partition that opens mid-call must surface as a deadline error within the
// per-call timeout, not strand the caller until the link heals.
func TestCallTimesOutDuringPartition(t *testing.T) {
	nw := testNet()
	r := slowResponder(t, nw, time.Hour) // never answers in time
	c := DialCaller(nw.Host("phone"), r.Addr().String())
	defer c.Close()
	c.SetCallTimeout(300 * time.Millisecond)

	// Cut the link shortly after the call goes out.
	go func() {
		time.Sleep(50 * time.Millisecond)
		nw.Partition("phone", "desktop")
	}()
	defer nw.Heal("phone", "desktop")

	start := time.Now()
	_, err := c.Call(context.Background(), StringMessage("ping"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Call succeeded across a partition")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Call error = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("Call blocked %v; the deadline should have fired at ~300ms", elapsed)
	}
}

// TestCallRetryBudgetBoundsDeadPeer verifies the caller stops redialing an
// unreachable address after the configured attempt budget instead of
// spinning until the deadline.
func TestCallRetryBudgetBoundsDeadPeer(t *testing.T) {
	nw := testNet()
	c := DialCaller(nw.Host("phone"), "desktop:49999") // nothing listens
	defer c.Close()
	c.SetCallTimeout(5 * time.Second)
	c.SetRetryBudget(3)

	start := time.Now()
	_, err := c.Call(context.Background(), StringMessage("ping"))
	if err == nil {
		t.Fatal("Call to dead peer succeeded")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("budget exhaustion reported as deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("3-attempt budget took %v", elapsed)
	}
}

// TestCallDeadlineAppliesPerCall checks the timeout restarts for each call:
// a healthy caller completes many sequential calls each well under the
// deadline, and a timed-out caller recovers once the fault clears.
func TestCallDeadlineAppliesPerCall(t *testing.T) {
	nw := testNet()
	r := slowResponder(t, nw, 0)
	c := DialCaller(nw.Host("phone"), r.Addr().String())
	defer c.Close()
	c.SetCallTimeout(500 * time.Millisecond)

	for i := 0; i < 20; i++ {
		if _, err := c.Call(context.Background(), StringMessage("ping")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	nw.Partition("phone", "desktop")
	if _, err := c.Call(context.Background(), StringMessage("ping")); err == nil {
		t.Fatal("call across partition succeeded")
	}
	nw.Heal("phone", "desktop")
	if _, err := c.Call(context.Background(), StringMessage("ping")); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}
