package services

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/vision"
	"videopipe/internal/wire"
)

// TestBatchBitIdenticalToSequential pins the batching determinism
// contract for the shipped vision services: a batch must produce, byte for
// byte, the results the same requests produce one at a time — both from
// Instance.invokeBatch directly and when the pool's collector forms the
// batches out of concurrent Invokes. Each path gets its own pool so
// per-instance state (there is none for these services, and this proves
// it) cannot couple the runs.
func TestBatchBitIdenticalToSequential(t *testing.T) {
	for _, name := range []string{PoseDetector, FaceDetector, ObjectDetector} {
		t.Run(name, func(t *testing.T) {
			frames := []*frame.Frame{
				sceneFrame(t, vision.Squat, 0.2),
				sceneFrame(t, vision.Wave, 0.6),
				sceneFrame(t, vision.Clap, 0.4),
				frame.MustNew(64, 64), // empty scene: the not-found branch
			}
			reqs := make([]Request, len(frames))
			for k, f := range frames {
				reqs[k] = Request{Frame: f}
			}

			seq := poolFor(t, name)
			want := make([][]byte, len(reqs))
			for k := range reqs {
				resp, err := seq.Invoke(context.Background(), reqs[k])
				if err != nil {
					t.Fatalf("sequential Invoke %d: %v", k, err)
				}
				want[k] = mustJSON(t, resp.Result)
			}
			check := func(path string, k int, resp Response, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s item %d: %v", path, k, err)
					return
				}
				if got := mustJSON(t, resp.Result); string(got) != string(want[k]) {
					t.Errorf("%s item %d diverges:\nbatched:    %s\nsequential: %s", path, k, got, want[k])
				}
			}

			inst, err := NewInstance(seq.Spec(), 1.0)
			if err != nil {
				t.Fatalf("NewInstance: %v", err)
			}
			resps, errs := inst.invokeBatch(context.Background(), reqs)
			if len(resps) != len(reqs) || len(errs) != len(reqs) {
				t.Fatalf("invokeBatch returned %d/%d results for %d requests", len(resps), len(errs), len(reqs))
			}
			for k := range reqs {
				check("invokeBatch", k, resps[k], errs[k])
			}

			// The collector path every caller (local or remote) reaches
			// through Pool.Invoke once the tuner turns batching on.
			batched := poolFor(t, name)
			batched.SetBatching(len(reqs), 200*time.Millisecond)
			defer batched.SetBatching(0, 0)
			var wg sync.WaitGroup
			for k := range reqs {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					resp, err := batched.Invoke(context.Background(), reqs[k])
					check("collector", k, resp, err)
				}(k)
			}
			wg.Wait()
			if got := batched.BatchedRequests(); got != uint64(len(reqs)) {
				t.Errorf("collector batched %d requests, want all %d", got, len(reqs))
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestPoolCollectorCoalescesConcurrentInvokes exercises the dynamic batch
// collector end to end: concurrent Invokes park in the queue, ride one
// amortized invocation, and the batch counters show the coalescing.
func TestPoolCollectorCoalescesConcurrentInvokes(t *testing.T) {
	spec := Spec{
		Name: "batchy", Cost: 5 * time.Millisecond, Workers: 1, MaxBatch: 4,
		Handler: func(_ context.Context, req Request) (Response, error) {
			return Response{Result: map[string]script.Value{"v": req.Args.Get("v")}}, nil
		},
	}
	p, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	// The requested window clamps to the spec's envelope.
	p.SetBatching(100, 50*time.Millisecond)
	if got := p.BatchSize(); got != 4 {
		t.Fatalf("BatchSize = %d, want clamped to spec.MaxBatch 4", got)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	got := make(map[float64]bool)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := p.Invoke(context.Background(), Request{Args: argsOf(map[string]script.Value{"v": float64(k)})})
			if err != nil {
				t.Errorf("batched Invoke %d: %v", k, err)
				return
			}
			mu.Lock()
			got[resp.Result["v"].(float64)] = true
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	if len(got) != 4 {
		t.Errorf("answers were not routed back per caller: %v", got)
	}
	if p.BatchedRequests() != 4 {
		t.Errorf("BatchedRequests = %d, want all 4 through the collector", p.BatchedRequests())
	}
	if b := p.Batches(); b == 0 || b >= 4 {
		t.Errorf("Batches = %d, want coalescing (0 < batches < 4)", b)
	}

	// Disabling returns Invoke to the direct path; the counters freeze.
	p.SetBatching(0, 0)
	if got := p.BatchSize(); got != 0 {
		t.Errorf("BatchSize after disable = %d", got)
	}
	before := p.Batches()
	if _, err := p.Invoke(context.Background(), Request{Args: argsOf(map[string]script.Value{"v": 9.0})}); err != nil {
		t.Fatalf("direct Invoke after disable: %v", err)
	}
	if p.Batches() != before {
		t.Error("direct Invoke after disable rode a batch")
	}
}

// TestPoolCollectorMixedStatus checks that a collected batch reports per
// request: a failing item never poisons its batchmates, and response frames
// come back to the caller that sent them.
func TestPoolCollectorMixedStatus(t *testing.T) {
	spec := Spec{
		Name: "echo", Cost: time.Millisecond, MaxBatch: 8,
		Handler: func(_ context.Context, req Request) (Response, error) {
			if req.Args.Get("fail") == true {
				return Response{}, errors.New("boom")
			}
			resp := Response{Result: map[string]script.Value{"v": req.Args.Get("v")}}
			if req.Frame != nil {
				resp.Frame = req.Frame.Clone()
			}
			return resp, nil
		},
	}
	p, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	p.SetBatching(3, time.Second)
	defer p.SetBatching(0, 0)

	f := sceneFrame(t, vision.Squat, 0.5)
	reqs := []Request{
		{Args: argsOf(map[string]script.Value{"v": 1.0}), Frame: f},
		{Args: argsOf(map[string]script.Value{"fail": true})},
		{Args: argsOf(map[string]script.Value{"v": 3.0})},
	}
	resps := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for k := range reqs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resps[k], errs[k] = p.Invoke(context.Background(), reqs[k])
		}(k)
	}
	wg.Wait()

	if errs[0] != nil || resps[0].Result["v"] != 1.0 {
		t.Errorf("item 0 = %+v / %v, want v=1", resps[0], errs[0])
	}
	if resps[0].Frame == nil {
		t.Error("item 0 lost its response frame")
	} else {
		if w := resps[0].Frame.Width; w != f.Width {
			t.Errorf("item 0 frame width %d, want %d", w, f.Width)
		}
		resps[0].Frame.Release()
	}
	if errs[1] == nil || resps[1].Result != nil {
		t.Errorf("item 1 = %+v / %v, want a per-item error", resps[1], errs[1])
	} else if msg := errs[1].Error(); !strings.Contains(msg, "boom") {
		t.Errorf("item 1 error %q does not carry the handler message", msg)
	}
	if errs[2] != nil || resps[2].Result["v"] != 3.0 || resps[2].Frame != nil {
		t.Errorf("item 2 = %+v / %v, want v=3 frameless", resps[2], errs[2])
	}
	// The full window formed, so the three calls were one pool invocation.
	if p.Batches() != 1 || p.BatchedRequests() != 3 {
		t.Errorf("pool saw %d batches / %d batched requests, want 1 / 3", p.Batches(), p.BatchedRequests())
	}
}

// TestServerRejectsBatchMarker sends the first part of the retired wire
// batch format: "!batch" is now just a service nobody registered, so the
// server answers with the ordinary unknown-service error.
func TestServerRejectsBatchMarker(t *testing.T) {
	nw := netsim.NewNetwork(netsim.LinkProfile{})
	spec := Spec{
		Name: "echo", Cost: time.Millisecond,
		Handler: func(_ context.Context, req Request) (Response, error) {
			return Response{Result: map[string]script.Value{"v": req.Args.Get("v")}}, nil
		},
	}
	pool, err := NewPool(spec, 1, 1.0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	srv, err := NewServer(nw.Host("desktop"), 0, map[string]*Pool{"echo": pool}, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	caller := wire.DialCaller(nw.Host("phone"), srv.Addr().String())
	defer caller.Close()

	_, err = caller.Call(context.Background(),
		wire.NewMessage([]byte("!batch"), []byte("echo"), []byte(`{"v":1}`), nil))
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, `unknown service "!batch"`) {
		t.Fatalf("batch-marker request returned %v, want the unknown-service remote error", err)
	}
	if pool.Calls() != 0 {
		t.Errorf("pool served %d calls for a rejected request", pool.Calls())
	}
	// The connection and server survive the rejected request.
	out, err := caller.Call(context.Background(), wire.NewMessage([]byte("echo"), []byte(`{"v":2}`)))
	if err != nil || !strings.Contains(out.StringPart(0), `"v":2`) {
		t.Errorf("ordinary call after the rejected one = %q, %v", out.StringPart(0), err)
	}
}
