package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/wire"
)

const (
	// probeIters is how often each probe repeats; probeBudget cuts a slow
	// probe (an 85 ms pose invocation) short.
	probeIters  = 200
	probeBudget = 1500 * time.Millisecond
)

// probeRun is the shared state of one workload's layer probes: the
// workload's own payloads and the tracer the probe spans go to.
type probeRun struct {
	w       workload
	tr      *tracer
	iters   int
	cfg     core.PipelineConfig
	tmpl    *frame.Frame // one template at the workload's geometry
	encoded []byte       // tmpl as the devices' codec sends it
	layer   map[string]float64
}

// deviceCodec is the codec device.New configures for network transfers.
var deviceCodec = frame.JPEGCodec{Quality: 85}

// runProbes replays one frame's path through each layer's public API, in
// the order the runtime uses it, on the workload's own payloads, and
// returns the probe metrics. Spans nest as the runtime's calls do:
// probe.remote_hop contains frame.jpeg_encode, wire.push, netsim.xfer and
// frame.jpeg_decode.
func runProbes(w workload, tr *tracer, iters int) (map[string]float64, error) {
	cfg := w.pipeline("probe")
	templates, err := renderTemplates(cfg.Source)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, t := range templates {
			t.Release()
		}
	}()
	p := &probeRun{w: w, tr: tr, iters: iters, cfg: cfg, tmpl: templates[0], layer: map[string]float64{}}
	if p.encoded, err = frame.AppendEncode(deviceCodec, nil, p.tmpl); err != nil {
		return nil, err
	}
	root := tr.begin(0, "harness", "probes")
	defer tr.end(root)
	for _, probe := range []func(int) error{p.remoteHop, p.rpc, p.moduleChain, p.serviceCall} {
		if err := probe(root); err != nil {
			return nil, fmt.Errorf("%s probes: %w", w.name, err)
		}
	}
	return p.layer, nil
}

// timed runs fn up to p.iters times under one parent span per
// iteration and reports the mallocs per iteration.
func (p *probeRun) timed(parent int, layer, name string, fn func(span int) error) (mallocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for ; n < p.iters && time.Since(start) < probeBudget; n++ {
		sp := p.tr.begin(parent, layer, name)
		err = fn(sp)
		p.tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// within runs fn inside a child span.
func (p *probeRun) within(parent int, layer, name string, fn func() error) error {
	sp := p.tr.begin(parent, layer, name)
	defer p.tr.end(sp)
	return fn()
}

func (p *probeRun) medianUS(name string) float64 {
	return float64(quantile(p.tr.durations(name), 0.5)) / float64(time.Microsecond)
}

func (p *probeRun) medianMS(name string) float64 { return ms(quantile(p.tr.durations(name), 0.5)) }

// remoteHop replays one device-to-device transfer: encode, PUSH over an
// unshaped link, the same bytes over a Wi-Fi link, decode.
func (p *probeRun) remoteHop(root int) error {
	free := netsim.NewNetwork(netsim.LinkProfile{})
	defer free.Close()
	pull, err := wire.ListenPull(free.Host("b"), 0)
	if err != nil {
		return err
	}
	defer pull.Close()
	push := wire.DialPush(free.Host("a"), pull.Addr().String())
	defer push.Close()

	wifi := netsim.NewNetwork(netsim.WiFi)
	defer wifi.Close()
	ln, err := wifi.Host("b").Listen(0)
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan io.ReadCloser, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	wr, err := wifi.Host("a").Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer wr.Close()
	rd, ok := <-accepted
	if !ok {
		return fmt.Errorf("netsim probe: accept failed")
	}
	defer rd.Close()

	ctx := context.Background()
	body := []byte(`{"seq":1,"captured_ms":1}`)
	var encBuf []byte
	rdBuf := make([]byte, len(p.encoded))
	var xferMallocs, xferKB, pushMallocs float64
	_, err = p.timed(root, "harness", "probe.remote_hop", func(hop int) error {
		if err := p.within(hop, "frame", "frame.jpeg_encode", func() (err error) {
			encBuf, err = frame.AppendEncode(deviceCodec, encBuf[:0], p.tmpl)
			return err
		}); err != nil {
			return err
		}
		m0 := memNow()
		if err := p.within(hop, "wire", "wire.push", func() error {
			if err := push.Send(ctx, wire.NewMessage(body, encBuf)); err != nil {
				return err
			}
			_, err := pull.Recv(ctx)
			return err
		}); err != nil {
			return err
		}
		m1 := memNow()
		if err := p.within(hop, "netsim", "netsim.xfer", func() error {
			if _, err := wr.Write(encBuf); err != nil {
				return err
			}
			_, err := io.ReadFull(rd, rdBuf[:len(encBuf)])
			return err
		}); err != nil {
			return err
		}
		m2 := memNow()
		pushMallocs += float64(m1.Mallocs - m0.Mallocs)
		xferMallocs += float64(m2.Mallocs - m1.Mallocs)
		xferKB += float64(m2.TotalAlloc-m1.TotalAlloc) / 1024
		return p.within(hop, "frame", "frame.jpeg_decode", func() error {
			f, err := deviceCodec.Decode(encBuf)
			if err != nil {
				return err
			}
			f.Release()
			return nil
		})
	})
	if err != nil {
		return err
	}
	if _, err := p.timed(root, "frame", "frame.clone", func(int) error {
		p.tmpl.Clone().Release()
		return nil
	}); err != nil {
		return err
	}

	n := float64(len(p.tr.durations("probe.remote_hop")))
	l := p.layer
	l["frame.jpeg_encode_ms"] = p.medianMS("frame.jpeg_encode")
	l["frame.jpeg_decode_ms"] = p.medianMS("frame.jpeg_decode")
	l["frame.encoded_kb"] = float64(len(p.encoded)) / 1024
	l["frame.clone_us"] = p.medianUS("frame.clone")
	l["wire.push_us"] = p.medianUS("wire.push")
	l["wire.push_mallocs"] = pushMallocs / n
	l["netsim.xfer_ms"] = p.medianMS("netsim.xfer")
	// What the profile itself charges one chunk: serialisation, latency
	// and the mean of the uniform jitter. The rest is the simulator's cost.
	prof := netsim.WiFi
	modelled := time.Duration(float64(len(p.encoded))/float64(prof.Bandwidth)*float64(time.Second)) + prof.Latency + prof.Jitter/2
	l["netsim.overhead_us"] = float64(quantile(p.tr.durations("netsim.xfer"), 0.5)-modelled) / float64(time.Microsecond)
	l["netsim.mallocs_per_xfer"] = xferMallocs / n
	l["netsim.alloc_kb_per_xfer"] = xferKB / n
	return nil
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// rpc times a Caller.Call echo of the workload's encoded frame over an
// unshaped link — the remote service-call path.
func (p *probeRun) rpc(root int) error {
	free := netsim.NewNetwork(netsim.LinkProfile{})
	defer free.Close()
	resp, err := wire.ListenResponder(free.Host("b"), 0, func(_ context.Context, req wire.Message) (wire.Message, error) {
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Close()
	caller := wire.DialCaller(free.Host("a"), resp.Addr().String())
	defer caller.Close()
	ctx := context.Background()
	req := wire.NewMessage([]byte(`{"service":"echo"}`), p.encoded)
	mallocs, err := p.timed(root, "wire", "wire.rpc", func(int) error {
		_, err := caller.Call(ctx, req)
		return err
	})
	p.layer["wire.rpc_rtt_us"] = p.medianUS("wire.rpc")
	p.layer["wire.rpc_mallocs"] = mallocs
	return err
}

// moduleChain loads every module source of the workload into a fresh
// script context with no-op host bindings and times event_received along
// the chain, in topological order.
func (p *probeRun) moduleChain(root int) error {
	order, err := p.cfg.TopoOrder()
	if err != nil {
		return err
	}
	stub := p.stubServiceResult()
	noop := func([]script.Value) (script.Value, error) { return nil, nil }
	newContext := func(mc *core.ModuleConfig) (*script.Context, error) {
		c := script.NewContext()
		c.SetLimits(p.cfg.EffectiveLimits(mc.Name).ToScript())
		for _, name := range []string{"call_module", "log", "frame_done", "metric"} {
			c.Bind(name, noop)
		}
		c.Bind("call_service", func([]script.Value) (script.Value, error) { return script.FromGo(stub), nil })
		c.Bind("now_ms", func([]script.Value) (script.Value, error) { return 1.0, nil })
		c.Bind("device_name", func([]script.Value) (script.Value, error) { return "probe", nil })
		return c, c.Load(mc.Source)
	}

	if _, err := p.timed(root, "script", "script.load", func(int) error {
		for _, name := range order {
			mc, _ := p.cfg.Module(name)
			if _, err := newContext(mc); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	contexts := make([]*script.Context, len(order))
	for i, name := range order {
		mc, _ := p.cfg.Module(name)
		if contexts[i], err = newContext(mc); err != nil {
			return err
		}
	}
	// The superset of every field a shipped module reads from its input.
	body := map[string]any{
		"frame_ref": 1.0, "captured_ms": 1.0, "seq": 0.0, "acc": 23994000.0,
		"pose": stub["pose"], "activity": "squat", "confidence": 0.9, "reps": 3.0,
	}
	// Untimed events first fill the activity window, so the timed ones
	// take the steady path.
	seq := 0.0
	for ; seq < 20; seq++ {
		body["seq"] = seq
		for i, c := range contexts {
			if _, err := c.Call("event_received", script.FromGo(body)); err != nil {
				return fmt.Errorf("module %s: %w", order[i], err)
			}
		}
	}
	event := func(parent int) error {
		seq++
		body["seq"] = seq
		for i, c := range contexts {
			if err := p.within(parent, "script", "script.event."+order[i], func() error {
				_, err := c.Call("event_received", script.FromGo(body))
				return err
			}); err != nil {
				return fmt.Errorf("module %s: %w", order[i], err)
			}
		}
		return nil
	}
	mallocs, err := p.timed(root, "script", "script.event", event)
	p.layer["script.event_us"] = p.medianUS("script.event")
	p.layer["script.mallocs_per_event"] = mallocs
	p.layer["script.load_us"] = p.medianUS("script.load")
	return err
}

// stubServiceResult is what the no-op call_service binding returns: every
// field the shipped modules read from any service, with a real pose when
// the workload has services.
func (p *probeRun) stubServiceResult() map[string]any {
	stub := map[string]any{
		"found": true, "pose": map[string]any{}, "activity": "squat",
		"confidence": 0.9, "actionable": false, "state": "", "reps": 3.0,
	}
	if !p.w.chain.services {
		return stub
	}
	reg, err := p.w.registry()
	if err != nil {
		return stub
	}
	spec, err := reg.Lookup(services.PoseDetector)
	if err != nil {
		return stub
	}
	if resp, err := spec.Handler(context.Background(), services.Request{Frame: p.tmpl}); err == nil && resp.Result["pose"] != nil {
		stub["pose"] = resp.Result["pose"]
	}
	return stub
}

// serviceCall times the service path of the pose workloads: the handler
// alone, an uncontended Pool.Invoke, and Device.CallService against a
// zero-cost local pool (the device layer's own share).
func (p *probeRun) serviceCall(root int) error {
	for _, name := range []string{"services.invoke_ms", "services.handler_ms", "device.call_service_ms"} {
		p.layer[name] = 0
	}
	if !p.w.chain.services {
		return nil
	}
	reg, err := p.w.registry()
	if err != nil {
		return err
	}
	spec, err := reg.Lookup(services.PoseDetector)
	if err != nil {
		return err
	}
	ctx := context.Background()
	req := services.Request{Frame: p.tmpl}
	if _, err := p.timed(root, "services", "services.handler", func(int) error {
		_, err := spec.Handler(ctx, req)
		return err
	}); err != nil {
		return err
	}
	pool, err := services.NewPool(spec, 1, 1.0)
	if err != nil {
		return err
	}
	if _, err := p.timed(root, "services", "services.invoke", func(int) error {
		_, err := pool.Invoke(ctx, req)
		return err
	}); err != nil {
		return err
	}

	net := netsim.NewNetwork(netsim.LinkProfile{})
	defer net.Close()
	dev, err := device.New(device.Config{Name: "probe", Class: device.Desktop}, net.Host("probe"), nil)
	if err != nil {
		return err
	}
	defer dev.Close()
	echo := services.Spec{Name: "probe_echo", Handler: func(context.Context, services.Request) (services.Response, error) {
		return services.Response{}, nil
	}}
	if _, err := dev.DeployService(echo, 1); err != nil {
		return err
	}
	if _, err := p.timed(root, "device", "device.call_service", func(int) error {
		_, err := dev.CallService(ctx, echo.Name, nil, p.tmpl)
		return err
	}); err != nil {
		return err
	}
	p.layer["services.handler_ms"] = p.medianMS("services.handler")
	p.layer["services.invoke_ms"] = p.medianMS("services.invoke")
	p.layer["device.call_service_ms"] = p.medianMS("device.call_service")
	return nil
}

// explainedMS sums the layer spans along the workload's chain: what the
// probes and stage histograms account for of one frame's latency.
func explainedMS(w workload, layer map[string]float64) float64 {
	hop := layer["frame.jpeg_encode_ms"] + layer["wire.push_us"]/1e3 + layer["netsim.xfer_ms"] + layer["frame.jpeg_decode_ms"]
	sum := layer["core.offer_us"]/1e3 + layer["script.event_us"]/1e3 + float64(w.chain.hops)*hop
	if w.chain.services {
		sum += layer["device.stage.pose_ms"] + layer["device.stage.activity_ms"] +
			layer["device.stage.rep_count_ms"] + layer["device.stage.display_ms"]
	}
	return sum
}
