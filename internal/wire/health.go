package wire

import (
	"context"
	"fmt"
)

// Health-ping protocol: the supervisor's device-liveness probe. A probe is
// a one-part "ping" request over the RPC layer; a healthy host answers
// "pong". The responder-side gate lets the host model real failure
// semantics — a paused (hung) device blocks the reply until its probe
// deadline expires, so liveness is judged by the same path application
// traffic takes rather than by a bypassing side channel.
const (
	healthPing = "ping"
	healthPong = "pong"
)

// HealthGate is consulted before every health reply. Returning an error
// fails the probe; blocking (until ctx ends) models a hung host that
// accepts connections but never answers.
type HealthGate func(ctx context.Context) error

// ListenHealth binds a liveness responder at port (0 = ephemeral). gate
// may be nil for hosts that are always ready.
func ListenHealth(t Transport, port int, gate HealthGate) (*Responder, error) {
	return ListenResponder(t, port, func(ctx context.Context, req Message) (Message, error) {
		if req.Len() < 1 || req.StringPart(0) != healthPing {
			return Message{}, fmt.Errorf("wire: health: unexpected probe %q", req.StringPart(0))
		}
		if gate != nil {
			if err := gate(ctx); err != nil {
				return Message{}, err
			}
		}
		return NewMessage([]byte(healthPong)), nil
	})
}

// Ping sends one liveness probe through the caller and verifies the reply.
// ctx's deadline and the caller's retry budget bound the probe; the
// supervisor passes a one-tick context, so a dead host costs at most one
// probe interval.
func Ping(ctx context.Context, c *Caller) error {
	resp, err := c.Call(ctx, NewMessage([]byte(healthPing)))
	if err != nil {
		return err
	}
	if resp.Len() < 1 || resp.StringPart(0) != healthPong {
		return fmt.Errorf("wire: health: unexpected reply %q", resp.StringPart(0))
	}
	return nil
}
