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
// partition that opens mid-call must surface as a deadline error by the
// call context's deadline, not strand the caller until the link heals.
func TestCallTimesOutDuringPartition(t *testing.T) {
	nw := testNet()
	r := slowResponder(t, nw, time.Hour) // never answers in time
	c := DialCaller(nw.Host("phone"), r.Addr().String())
	defer c.Close()

	// Cut the link shortly after the call goes out.
	go func() {
		time.Sleep(50 * time.Millisecond)
		nw.Partition("phone", "desktop")
	}()
	defer nw.Heal("phone", "desktop")

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, NewMessage([]byte("ping")))
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
// unreachable address after DefaultRetryBudget attempts instead of
// spinning until the deadline.
func TestCallRetryBudgetBoundsDeadPeer(t *testing.T) {
	nw := testNet()
	c := DialCaller(nw.Host("phone"), "desktop:49999") // nothing listens
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, NewMessage([]byte("ping")))
	if err == nil {
		t.Fatal("Call to dead peer succeeded")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("budget exhaustion reported as deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("%d-attempt budget took %v", DefaultRetryBudget, elapsed)
	}
}

// TestCallDeadlineAppliesPerCall checks each call is bounded by its own
// context: a healthy caller completes many sequential calls each well under
// its deadline, and a timed-out caller recovers once the fault clears.
func TestCallDeadlineAppliesPerCall(t *testing.T) {
	nw := testNet()
	r := slowResponder(t, nw, 0)
	c := DialCaller(nw.Host("phone"), r.Addr().String())
	defer c.Close()
	call := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		_, err := c.Call(ctx, NewMessage([]byte("ping")))
		return err
	}

	for i := 0; i < 20; i++ {
		if err := call(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	nw.Partition("phone", "desktop")
	if err := call(); err == nil {
		t.Fatal("call across partition succeeded")
	}
	nw.Heal("phone", "desktop")
	if err := call(); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}
