package device

import (
	"context"
	"encoding/json"
	"fmt"
	"time"
	"videopipe/internal/frame"

	"videopipe/internal/script"
	"videopipe/internal/wire"
)

// serviceCallTimeout bounds one service invocation from a module.
const serviceCallTimeout = 30 * time.Second

// chargeOutput meters n bytes of host-emitted payload (call_module /
// call_service / log) against the module's per-event output budget.
// Frame pixel payloads are exempt — they travel by reference under the
// store's own accounting; the budget is for the data a module *generates*.
func (m *Module) chargeOutput(n int) error {
	if m.limits.Output <= 0 {
		return nil
	}
	m.outputUsed += int64(n)
	if m.outputUsed > m.limits.Output {
		return &script.BudgetError{
			Resource: script.ResourceOutput,
			Limit:    m.limits.Output,
			Used:     m.outputUsed,
		}
	}
	return nil
}

// payloadSize estimates the emitted size of a ToGo-converted message body:
// strings by length, scalars by word, containers by per-slot overhead plus
// contents. It mirrors the script layer's allocation accounting.
func payloadSize(v any) int {
	switch x := v.(type) {
	case string:
		return len(x) + 16
	case []any:
		n := 24
		for _, e := range x {
			n += 16 + payloadSize(e)
		}
		return n
	case map[string]any:
		n := 48
		for k, e := range x {
			n += 16 + len(k) + payloadSize(e)
		}
		return n
	case nil:
		return 0
	default:
		return 8
	}
}

// bindHostAPI installs the Table-1 module interface plus runtime helpers
// into the module's script context:
//
//	call_service(service, message) -> result   (paper Table 1)
//	call_module(module, message)               (paper Table 1)
//	log(values...)
//	now_ms() -> number
//	frame_done()                               (flow-control credit, §2.3)
//	device_name() -> string
//	metric(name, ms)
//
// Frames travel as "frame_ref" ids inside messages (paper §3: "rather than
// copying the full image frames to the module, we pass on a reference id").
func (m *Module) bindHostAPI() { m.bindHostAPIInto(m.ctx) }

// bindHostAPIInto installs the bindings into an arbitrary context — used
// both at spawn and when hot-swapping module code (UpdateSource).
func (m *Module) bindHostAPIInto(ctx *script.Context) {
	ctx.Bind("call_service", m.hostCallService)
	ctx.Bind("call_module", m.hostCallModule)
	ctx.Bind("log", m.hostLog)
	ctx.Bind("now_ms", func([]script.Value) (script.Value, error) {
		return float64(time.Now().UnixNano()) / 1e6, nil
	})
	ctx.Bind("frame_done", m.hostFrameDone)
	ctx.Bind("device_name", func([]script.Value) (script.Value, error) {
		return m.dev.name, nil
	})
	ctx.Bind("metric", m.hostMetric)
}

// hostCallService implements call_service(service, message). Arity and
// argument types are validated against the shared host-API signature table
// (script.CheckHostArgs) — the same table pipevet checks statically — so
// only the dynamic checks (allowed services, frame refs) live here.
func (m *Module) hostCallService(args []script.Value) (script.Value, error) {
	if err := script.CheckHostArgs("call_service", args); err != nil {
		return nil, err
	}
	name := args[0].(string)
	if len(m.allowed) > 0 && !m.allowed[name] {
		return nil, fmt.Errorf("call_service: module %q is not configured to use service %q", m.spec.Name, name)
	}

	callArgs := map[string]any{}
	if len(args) >= 2 && args[1] != nil {
		converted, err := messageArg("call_service", args[1])
		if err != nil {
			return nil, err
		}
		callArgs = converted
	}

	if err := m.chargeOutput(payloadSize(callArgs)); err != nil {
		return nil, err
	}

	// Resolve a frame reference into the actual frame for the service.
	var reqFrame *frame.Frame
	if refRaw, has := callArgs["frame_ref"]; has {
		ref, ok := refRaw.(float64)
		if !ok {
			return nil, fmt.Errorf("call_service: frame_ref must be a number")
		}
		f, err := m.dev.store.Get(uint64(ref))
		if err != nil {
			return nil, fmt.Errorf("call_service: %w", err)
		}
		reqFrame = f
		delete(callArgs, "frame_ref")
	}

	// Derived from the device's base context so that Crash cancels the
	// call immediately instead of holding this event loop for the full
	// timeout (which would stall migration for the same span).
	ctx, cancel := context.WithTimeout(m.dev.baseCtx, serviceCallTimeout)
	defer cancel()
	resp, err := m.dev.CallService(ctx, name, callArgs, reqFrame)
	if err != nil {
		return nil, fmt.Errorf("call_service: %w", err)
	}

	result := resp.Result
	if result == nil {
		result = map[string]any{}
	}
	if resp.Frame != nil {
		id, err := m.dev.store.Put(resp.Frame)
		if err != nil {
			resp.Frame.Release()
			return nil, fmt.Errorf("call_service: storing result frame: %w", err)
		}
		m.ownedRefs = append(m.ownedRefs, id)
		result["frame_ref"] = float64(id)
	}
	return script.FromGo(result), nil
}

// hostCallModule implements call_module(module, message): the DAG edge
// transfer. Local destinations receive the frame by reference; remote
// destinations receive an encoded copy over the wire.
func (m *Module) hostCallModule(args []script.Value) (script.Value, error) {
	if err := script.CheckHostArgs("call_module", args); err != nil {
		return nil, err
	}
	target := args[0].(string)
	m.routeMu.RLock()
	route, ok := m.routes[target]
	m.routeMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("call_module: module %q has no edge to %q", m.spec.Name, target)
	}

	if obs := m.shapeObserver(); obs != nil {
		var payload script.Value
		if len(args) >= 2 {
			payload = args[1]
		}
		obs(target, payload)
	}

	body := map[string]any{}
	if len(args) >= 2 && args[1] != nil {
		converted, err := messageArg("call_module", args[1])
		if err != nil {
			return nil, err
		}
		body = converted
	}

	var frameID uint64
	if refRaw, has := body["frame_ref"]; has {
		ref, ok := refRaw.(float64)
		if !ok {
			return nil, fmt.Errorf("call_module: frame_ref must be a number")
		}
		frameID = uint64(ref)
		delete(body, "frame_ref")
	}

	if err := m.chargeOutput(payloadSize(body)); err != nil {
		return nil, err
	}

	if route.Address == "" {
		return nil, m.deliverLocal(route.Module, body, frameID)
	}
	return nil, m.deliverRemote(route, body, frameID)
}

// deliverLocal hands an event to a module on the same device: the frame
// reference is retained for the receiver — zero pixel copies.
func (m *Module) deliverLocal(target string, body map[string]any, frameID uint64) error {
	dst, ok := m.dev.Module(target)
	if !ok {
		return fmt.Errorf("call_module: local module %q not found on %s", target, m.dev.name)
	}
	ev := event{body: body}
	if frameID != 0 {
		if err := m.dev.store.Retain(frameID); err != nil {
			return fmt.Errorf("call_module: %w", err)
		}
		ev.frameID = frameID
	}
	select {
	case dst.events <- ev:
		return nil
	case <-dst.done:
		if ev.frameID != 0 {
			m.dev.store.Release(ev.frameID)
		}
		return fmt.Errorf("call_module: module %q is closed", target)
	case <-m.done:
		if ev.frameID != 0 {
			m.dev.store.Release(ev.frameID)
		}
		return fmt.Errorf("call_module: module %q is closing", m.spec.Name)
	}
}

// deliverRemote ships the event across the network, encoding the frame
// into the module's reusable scratch buffer (safe: deliverRemote only runs
// on the event-loop goroutine, and push.Send has copied the bytes into the
// socket's own buffer by the time it returns).
func (m *Module) deliverRemote(route Route, body map[string]any, frameID uint64) error {
	bodyJSON, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("call_module: marshal body: %w", err)
	}
	msg := wire.NewMessage(bodyJSON)
	if frameID != 0 {
		f, err := m.dev.store.Get(frameID)
		if err != nil {
			return fmt.Errorf("call_module: %w", err)
		}
		encStart := time.Now()
		data, err := frame.AppendEncode(m.dev.codec, m.encBuf[:0], f)
		if err != nil {
			return fmt.Errorf("call_module: encode frame: %w", err)
		}
		m.encBuf = data
		m.dev.reg.Histogram("module." + m.spec.Name + ".encode").Observe(time.Since(encStart))
		msg.Parts = append(msg.Parts, data)
	}

	m.pushMu.Lock()
	push, ok := m.pushes[route.Address]
	if !ok {
		push = wire.DialPush(m.dev.transport, route.Address)
		m.pushes[route.Address] = push
	}
	m.pushMu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), serviceCallTimeout)
	defer cancel()
	if err := push.Send(ctx, msg); err != nil {
		return fmt.Errorf("call_module: send to %q at %s: %w", route.Module, route.Address, err)
	}
	return nil
}

// messageArg converts the message argument of host call fn to its wire
// form. The error — not an object, or nested past script.MaxDepth — becomes
// a script throw at the call's position.
func messageArg(fn string, v script.Value) (map[string]any, error) {
	plain, err := script.ToGo(v)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fn, err)
	}
	msg, ok := plain.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%s: message must be an object, got %s", fn, script.TypeName(v))
	}
	return msg, nil
}

// hostLog implements log(...): module diagnostics tagged with device and
// module name.
func (m *Module) hostLog(args []script.Value) (script.Value, error) {
	parts := make([]any, 0, len(args))
	logged := 0
	for _, a := range args {
		s, err := script.Stringify(a)
		if err != nil {
			return nil, fmt.Errorf("log: %w", err)
		}
		logged += len(s)
		parts = append(parts, s)
	}
	if err := m.chargeOutput(logged); err != nil {
		return nil, err
	}
	m.dev.reg.Meter("module." + m.spec.Name + ".logs").Mark()
	if m.dev.logf != nil {
		m.dev.logf("[%s/%s] %v", m.dev.name, m.spec.Name, parts)
	}
	return nil, nil
}

// hostFrameDone implements frame_done(): the sink's completion signal. The
// runtime also records end-to-end pipeline latency from the current
// frame's capture timestamp.
func (m *Module) hostFrameDone([]script.Value) (script.Value, error) {
	m.frameDoneSeen = true
	if m.currentFrame != nil && !m.currentFrame.Captured.IsZero() {
		m.dev.reg.Histogram("pipeline." + m.spec.Name + ".e2e").Observe(time.Since(m.currentFrame.Captured))
	}
	m.dev.reg.Meter("pipeline." + m.spec.Name + ".frames_done").Mark()
	if m.onFrameDone != nil {
		m.onFrameDone()
	}
	return nil, nil
}

// hostMetric implements metric(name, ms): module-level stage timing, used
// by the experiment scripts to report per-stage latency (Fig. 6).
func (m *Module) hostMetric(args []script.Value) (script.Value, error) {
	if err := script.CheckHostArgs("metric", args); err != nil {
		return nil, err
	}
	name := args[0].(string)
	ms := args[1].(float64)
	d := time.Duration(ms * float64(time.Millisecond))
	if m.spec.MetricPrefix != "" {
		m.dev.reg.Histogram("stage." + m.spec.MetricPrefix + "." + name).Observe(d)
	} else {
		m.dev.reg.Histogram("stage." + name).Observe(d)
	}
	return nil, nil
}
