package clock

import (
	"context"
	"time"
)

// Deadline bounds call after call of one goroutine: Start returns a context
// that ends timeout later with context.DeadlineExceeded, or with the parent
// (which has no deadline of its own), and Stop disarms it after the call. A
// warm Start/Stop allocates nothing: the context and its timer are re-armed,
// and made afresh only after they ended a call.
type Deadline struct {
	parent  context.Context
	timeout time.Duration
	cur     *deadlineCtx // nil until the first Start and after an expiry
}

// deadlineCtx is one generation of a Deadline's context. Done and Value are
// the inner context's, so a child derived from it needs no goroutine.
type deadlineCtx struct {
	context.Context
	cancel   context.CancelCauseFunc
	timer    *time.Timer
	deadline time.Time
}

// NewDeadline returns a Deadline bounding each call under parent by timeout.
func NewDeadline(parent context.Context, timeout time.Duration) *Deadline {
	return &Deadline{parent: parent, timeout: timeout}
}

// Start arms the deadline and returns the call's context.
func (d *Deadline) Start() context.Context {
	at := time.Now().Add(d.timeout)
	if c := d.cur; c != nil && c.Context.Err() == nil {
		c.timer.Reset(d.timeout)
	} else {
		c = &deadlineCtx{}
		c.Context, c.cancel = context.WithCancelCause(d.parent)
		c.timer = time.AfterFunc(d.timeout, func() { c.cancel(context.DeadlineExceeded) })
		d.cur = c
	}
	d.cur.deadline = at
	return d.cur
}

// Stop disarms the deadline; a timer that fired, or is firing, retires its
// context.
func (d *Deadline) Stop() {
	if d.cur != nil && !d.cur.timer.Stop() {
		d.cur = nil
	}
}

// Close detaches the deadline from its parent for good.
func (d *Deadline) Close() {
	if d.cur != nil {
		d.cur.timer.Stop()
		d.cur.cancel(nil)
	}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// Err reports an expiry as context.DeadlineExceeded, not as the cancel that
// carried it.
func (c *deadlineCtx) Err() error {
	if err := c.Context.Err(); err == nil || context.Cause(c.Context) != context.DeadlineExceeded {
		return err
	}
	return context.DeadlineExceeded
}
