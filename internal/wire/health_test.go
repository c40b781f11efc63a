package wire

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestHealthPingHealthyHost(t *testing.T) {
	nw := testNet()
	resp, err := ListenHealth(nw.Host("tv"), 0, nil)
	if err != nil {
		t.Fatalf("ListenHealth: %v", err)
	}
	defer resp.Close()

	c := DialCaller(nw.Host("supervisor"), resp.Addr().String())
	defer c.Close()

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := Ping(ctx, c)
		cancel()
		if err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
}

func TestHealthPingGatedHostTimesOut(t *testing.T) {
	nw := testNet()
	// Gate blocks forever: a hung host that accepts connections but never
	// answers. The probe must fail on its context's deadline.
	resp, err := ListenHealth(nw.Host("tv"), 0, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatalf("ListenHealth: %v", err)
	}
	defer resp.Close()

	c := DialCaller(nw.Host("supervisor"), resp.Addr().String())
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = Ping(ctx, c)
	if err == nil {
		t.Fatal("Ping against a hung host succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Ping error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("probe took %v, should fail on its 100ms deadline", elapsed)
	}
}

func TestHealthPingGateErrorFailsProbe(t *testing.T) {
	nw := testNet()
	gateErr := errors.New("host shutting down")
	resp, err := ListenHealth(nw.Host("tv"), 0, func(context.Context) error { return gateErr })
	if err != nil {
		t.Fatalf("ListenHealth: %v", err)
	}
	defer resp.Close()

	c := DialCaller(nw.Host("supervisor"), resp.Addr().String())
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err = Ping(ctx, c)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("Ping error = %v, want *RemoteError from the gate", err)
	}
}

func TestHealthPingUnreachableHostFailsFast(t *testing.T) {
	nw := testNet()
	resp, err := ListenHealth(nw.Host("tv"), 0, nil)
	if err != nil {
		t.Fatalf("ListenHealth: %v", err)
	}
	defer resp.Close()

	nw.Partition("supervisor", "tv")
	c := DialCaller(nw.Host("supervisor"), resp.Addr().String())
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := Ping(ctx, c); err == nil {
		t.Fatal("Ping across a partition succeeded")
	}
}
