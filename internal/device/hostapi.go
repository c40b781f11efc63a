package device

import (
	"context"
	"errors"
	"fmt"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/script"
	"videopipe/internal/wire"
)

// serviceCallTimeout bounds one service invocation from a module.
const serviceCallTimeout = 30 * time.Second

// chargeOutput meters n bytes of host-emitted payload (call_module /
// call_service / log) against the module's per-event output budget.
// Frame pixel payloads are exempt — they travel by reference under the
// store's own accounting; the budget is for the data a module *generates*.
func (w *worker) chargeOutput(n int) error {
	limit := w.m.limits.Output
	if limit <= 0 {
		return nil
	}
	w.outputUsed += int64(n)
	if w.outputUsed > limit {
		return &script.BudgetError{
			Resource: script.ResourceOutput,
			Limit:    limit,
			Used:     w.outputUsed,
		}
	}
	return nil
}

// frameRefKey is the message field that carries a frame's store id (paper
// §3: "we pass on a reference id"). The runtime resolves it on the way out
// and sets it on the way in; its value never crosses a device boundary.
const frameRefKey = "frame_ref"

// chargePayload meters msg against the output budget on the value itself,
// before any copy or encoding is made of it, and gives up as soon as the
// running total passes what is left: a message that shares substructure
// (a = [a, a], twenty times over) is a few dozen script allocations but
// gigabytes once copied, so the budget has to stop the copy, not follow it.
// call_module does not pay for the frame_ref it carries (exemptRef);
// call_service, historically, does.
func (w *worker) chargePayload(fn string, msg *script.Object, exemptRef bool) error {
	limit := w.m.limits.Output
	if limit <= 0 {
		return nil
	}
	var exempt int64
	if _, has := msg.Fields[frameRefKey]; has && exemptRef {
		exempt = 16 + int64(len(frameRefKey)) + 8 // the slot, the key and one word
	}
	n, err := script.PayloadSize(msg, limit-w.outputUsed+exempt)
	if err != nil {
		return fmt.Errorf("%s: %w", fn, err)
	}
	return w.chargeOutput(int(n - exempt))
}

// messageArg returns the message argument of host call fn (an empty object
// when there is none) and the frame reference it carries (0 for none). The
// message is the script's own object; nothing is converted.
func messageArg(fn string, args []script.Value) (*script.Object, uint64, error) {
	if len(args) < 2 || args[1] == nil {
		return &script.Object{}, 0, nil
	}
	msg := args[1].(*script.Object) // CheckHostArgs admitted it
	raw, has := msg.Fields[frameRefKey]
	ref, ok := raw.(float64)
	if has && !ok {
		return nil, 0, fmt.Errorf("%s: frame_ref must be a number", fn)
	}
	return msg, uint64(ref), nil
}

// bindHostAPI installs the Table-1 module interface plus runtime helpers
// into the worker's script context, bound to the worker so that each
// context's calls see its own event:
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
func (w *worker) bindHostAPI() {
	w.ctx.Bind("call_service", w.hostCallService)
	w.ctx.Bind("call_module", w.hostCallModule)
	w.ctx.Bind("log", w.hostLog)
	w.ctx.Bind("now_ms", func([]script.Value) (script.Value, error) {
		return float64(time.Now().UnixNano()) / 1e6, nil
	})
	w.ctx.Bind("frame_done", w.hostFrameDone)
	w.ctx.Bind("device_name", func([]script.Value) (script.Value, error) {
		return w.m.dev.name, nil
	})
	w.ctx.Bind("metric", w.hostMetric)
}

// hostCallService implements call_service(service, message). Arity and
// argument types are validated against the shared host-API signature table
// (script.CheckHostArgs) — the same table pipevet checks statically — so
// only the dynamic checks (allowed services, frame refs) live here.
func (w *worker) hostCallService(args []script.Value) (script.Value, error) {
	if err := script.CheckHostArgs("call_service", args); err != nil {
		return nil, err
	}
	m := w.m
	name := args[0].(string)
	if len(m.allowed) > 0 && !m.allowed[name] {
		return nil, fmt.Errorf("call_service: module %q is not configured to use service %q", m.spec.Name, name)
	}

	msg, frameID, err := messageArg("call_service", args)
	if err != nil {
		return nil, err
	}
	if err := w.chargePayload("call_service", msg, false); err != nil {
		return nil, err
	}
	// The handler is lent the message's own fields for the duration of the
	// call (services.Request.Args): this goroutine is parked until it
	// returns, so the script cannot touch them meanwhile.
	callArgs := msg.Fields

	// Resolve a frame reference into the actual frame for the service. The
	// handler must not see the id and the script's object must keep it, so
	// the one copy call_service ever makes is this shallow one.
	var reqFrame *frame.Frame
	if _, has := callArgs[frameRefKey]; has {
		if reqFrame, err = m.dev.store.Get(frameID); err != nil {
			return nil, fmt.Errorf("call_service: %w", err)
		}
		callArgs = make(map[string]script.Value, len(msg.Fields)-1)
		for k, v := range msg.Fields {
			if k != frameRefKey {
				callArgs[k] = v
			}
		}
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

	// The handler's result map becomes the returned object as is; the
	// module owns it from here.
	result := &script.Object{Fields: resp.Result}
	if resp.Frame != nil {
		id, err := m.dev.store.Put(resp.Frame)
		if err != nil {
			resp.Frame.Release()
			return nil, fmt.Errorf("call_service: storing result frame: %w", err)
		}
		w.ownedRefs = append(w.ownedRefs, id)
		result.Set(frameRefKey, float64(id))
	}
	return result, nil
}

// hostCallModule implements call_module(module, message): the DAG edge
// transfer. Local destinations receive the frame by reference; remote
// destinations receive an encoded copy over the wire. Everything up to the
// hand-over itself — checks, the clone or the encoding — runs as soon as the
// handler gets here; the hand-over waits for the worker's turn, so an edge
// carries events in the order its module received them.
func (w *worker) hostCallModule(args []script.Value) (script.Value, error) {
	if err := script.CheckHostArgs("call_module", args); err != nil {
		return nil, err
	}
	m := w.m
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

	msg, frameID, err := messageArg("call_module", args)
	if err != nil {
		return nil, err
	}
	if err := w.chargePayload("call_module", msg, true); err != nil {
		return nil, err
	}

	if route.Address == "" {
		return nil, w.deliverLocal(route.Module, msg, frameID)
	}
	return nil, w.deliverRemote(route, msg, frameID)
}

// errClosing fails a host call whose turn never came because the module
// closed; the event errors out and its frame is abandoned like any other's.
func (w *worker) errClosing(fn string) error {
	return fmt.Errorf("%s: module %q is closing", fn, w.m.spec.Name)
}

// deliverLocal hands an event to a module on the same device: the frame
// reference is retained for the receiver — zero pixel copies — and the
// message is snapshotted here, at send, on the sender's goroutine: one
// bounded clone the receiving event owns outright, so the two module
// contexts never share a mutable value and the sender may change its
// message the moment call_module returns.
func (w *worker) deliverLocal(target string, msg *script.Object, frameID uint64) error {
	m := w.m
	dst, ok := m.dev.Module(target)
	if !ok {
		return fmt.Errorf("call_module: local module %q not found on %s", target, m.dev.name)
	}
	body, err := script.Clone(msg)
	if err != nil {
		return fmt.Errorf("call_module: %w", err)
	}
	ev := event{body: body.(*script.Object)}
	delete(ev.body.Fields, frameRefKey) // the sender's id; the receiver gets its own
	if frameID != 0 {
		if err := m.dev.store.Retain(frameID); err != nil {
			return fmt.Errorf("call_module: %w", err)
		}
		ev.frameID = frameID
	}
	if !w.awaitTurn() {
		if ev.frameID != 0 {
			m.dev.store.Release(ev.frameID)
		}
		return w.errClosing("call_module")
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
		return w.errClosing("call_module")
	}
}

// deliverRemote ships the event across the network, encoding the message
// and the frame into the worker's reusable scratch buffers (safe: they are
// the worker's own, and push.Send has copied the bytes into the socket's own
// buffer by the time it returns).
func (w *worker) deliverRemote(route Route, body *script.Object, frameID uint64) error {
	m := w.m
	bodyJSON, err := w.jsonEnc.AppendObject(w.bodyBuf[:0], body, frameRefKey)
	if err != nil {
		return fmt.Errorf("call_module: marshal body: %w", err)
	}
	w.bodyBuf = bodyJSON
	msg := wire.NewMessage(bodyJSON)
	if frameID != 0 {
		f, err := m.dev.store.Get(frameID)
		if err != nil {
			return fmt.Errorf("call_module: %w", err)
		}
		encStart := time.Now()
		data, err := frame.AppendEncode(m.dev.codec, w.encBuf[:0], f)
		if err != nil {
			return fmt.Errorf("call_module: encode frame: %w", err)
		}
		w.encBuf = data
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

	if !w.awaitTurn() {
		return w.errClosing("call_module")
	}
	ctx, cancel := context.WithTimeout(context.Background(), serviceCallTimeout)
	defer cancel()
	if err := push.Send(ctx, msg); err != nil {
		return fmt.Errorf("call_module: send to %q at %s: %w", route.Module, route.Address, err)
	}
	return nil
}

// hostLog implements log(...): module diagnostics tagged with device and
// module name.
func (w *worker) hostLog(args []script.Value) (script.Value, error) {
	m := w.m
	// Each argument is rendered against what is left of the output budget
	// and the rendering stops there: what log() may make the host write is
	// bounded by the budget, not by how large the value would print.
	left := -1
	if m.limits.Output > 0 {
		left = int(m.limits.Output - w.outputUsed)
	}
	parts := make([]any, 0, len(args))
	logged := 0
	for _, a := range args {
		s, err := script.StringifyMax(a, left)
		if errors.Is(err, script.ErrTooLong) {
			return nil, w.chargeOutput(logged + left + 1)
		}
		if err != nil {
			return nil, fmt.Errorf("log: %w", err)
		}
		logged += len(s)
		if left >= 0 {
			left = max(left-len(s), 0)
		}
		parts = append(parts, s)
	}
	if err := w.chargeOutput(logged); err != nil {
		return nil, err
	}
	m.dev.reg.Meter("module." + m.spec.Name + ".logs").Mark()
	if m.dev.logf != nil {
		m.dev.logf("[%s/%s] %v", m.dev.name, m.spec.Name, parts)
	}
	return nil, nil
}

// hostFrameDone implements frame_done(): the sink's completion signal, in
// inbox order like a delivery. The runtime also records end-to-end pipeline
// latency from the current frame's capture timestamp and hands it to the
// pipeline with the credit. An event completes its frame once: a second
// call would return a second credit for it.
func (w *worker) hostFrameDone([]script.Value) (script.Value, error) {
	if w.frameDoneSeen {
		return nil, nil
	}
	if !w.awaitTurn() {
		return nil, w.errClosing("frame_done")
	}
	m := w.m
	w.frameDoneSeen = true
	var e2e time.Duration
	if w.currentFrame != nil && !w.currentFrame.Captured.IsZero() {
		e2e = time.Since(w.currentFrame.Captured)
		m.dev.reg.Histogram("pipeline." + m.spec.Name + ".e2e").Observe(e2e)
	}
	m.dev.reg.Meter("pipeline." + m.spec.Name + ".frames_done").Mark()
	if m.onFrameDone != nil {
		m.onFrameDone(e2e)
	}
	return nil, nil
}

// hostMetric implements metric(name, ms): module-level stage timing, used
// by the experiment scripts to report per-stage latency (Fig. 6).
func (w *worker) hostMetric(args []script.Value) (script.Value, error) {
	if err := script.CheckHostArgs("metric", args); err != nil {
		return nil, err
	}
	m := w.m
	name := args[0].(string)
	ms := args[1].(float64)
	h, ok := w.stageHists[name]
	if !ok {
		if m.spec.MetricPrefix != "" {
			h = m.dev.reg.Histogram("stage." + m.spec.MetricPrefix + "." + name)
		} else {
			h = m.dev.reg.Histogram("stage." + name)
		}
		if w.stageHists == nil {
			w.stageHists = make(map[string]*metrics.Histogram)
		}
		w.stageHists[name] = h
	}
	h.Observe(time.Duration(ms * float64(time.Millisecond)))
	return nil, nil
}
