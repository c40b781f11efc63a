package core

import (
	"context"
	"time"

	"videopipe/internal/wire"
)

// The heal phase's thresholds, sized for the simulated testbed. The loop
// counts each time in whole ticks (ticks).
const (
	// deadAfter is how long a device may miss every probe before it is
	// declared dead: 14 ticks, long enough that a rebooting host (which
	// resumes) is never mistaken for a dead one (which never does). A probe
	// has one tick to answer.
	deadAfter = 1350 * time.Millisecond
	// restartBackoff is the delay after the first restart attempt,
	// doubling per attempt up to restartBackoffMax: 3, 5, 10, 20, 20 ticks.
	restartBackoff    = 250 * time.Millisecond
	restartBackoffMax = 2 * time.Second
	// maxRestarts is the restart budget of each service and module; it
	// refills after healthyAfter of sustained health (50 ticks).
	maxRestarts  = 5
	healthyAfter = 5 * time.Second
	// errorBurst is the per-tick service-error delta that counts toward a
	// restart trigger; two consecutive bursty ticks trip it.
	errorBurst = 10
)

// restartBudget is the restart discipline service and module healing
// share: a bounded number of attempts, exponential backoff between them,
// and a refill once health has been sustained, all counted in ticks.
type restartBudget struct {
	// restarts spent from the budget since the last healthy stretch.
	restarts int
	// wait is how many more ticks the backoff holds the next attempt.
	wait int
	// healthy counts consecutive healthy ticks, for budget refill.
	healthy int
}

// observe counts one tick: the backoff runs down, and health sustained
// past healthyAfter refills the budget and clears the backoff.
func (b *restartBudget) observe(healthy bool) {
	if b.wait > 0 {
		b.wait--
	}
	if !healthy {
		b.healthy = 0
		return
	}
	b.healthy++
	if b.restarts > 0 && b.healthy > ticks(healthyAfter) {
		b.restarts, b.wait = 0, 0
	}
}

// claim spends one restart, returning the 1-based attempt number; ok is
// false while backing off or once the budget is exhausted.
func (b *restartBudget) claim() (attempt int, ok bool) {
	if b.wait > 0 || b.restarts >= maxRestarts {
		return 0, false
	}
	b.restarts++
	return b.restarts, true
}

// backOff holds the next attempt for the backoff after attempt n
// (1-based): exponential from restartBackoff, capped. The loop's seeded
// tick jitter spreads it in wall time, so a fleet of loops never thunders
// in lockstep; neither reaches the action journal.
func (b *restartBudget) backOff(n int) {
	d := restartBackoff << uint(n-1)
	if d > restartBackoffMax || d <= 0 {
		d = restartBackoffMax
	}
	b.wait = ticks(d)
}

// svcState is the heal phase's per-service bookkeeping.
type svcState struct {
	restartBudget
	// desired is the pool size observed while last healthy — the size a
	// restart restores.
	desired int
	// lastErr is the service error-meter reading at the previous tick.
	lastErr uint64
	// burstSteps counts consecutive ticks whose error delta exceeded the
	// burst threshold.
	burstSteps int
}

// probe is the heal phase's liveness check of one device: at most one ping
// in flight, answering on done, and the count of consecutive ticks that
// ended without an answer.
type probe struct {
	caller *wire.Caller
	done   chan error
	out    bool
	missed int
}

// probeDevices reads the ping each live device was sent last tick and sends
// this tick's, declaring dead any device that has missed deadAfter in a
// row. A ping still out counts as a miss, so a hung device neither
// stretches the tick nor delays its declaration. Devices go in
// configuration order, so two deaths in one tick journal in that order.
func (l *Loop) probeDevices(ctx context.Context) {
	for _, name := range l.cluster.DeviceNames() {
		pr, seen := l.probes[name]
		if !seen {
			pr = &probe{done: make(chan error, 1)}
			l.probes[name] = pr
		} else {
			answered := false
			if pr.out {
				select {
				case err := <-pr.done:
					pr.out, answered = false, err == nil
				default:
				}
			}
			if answered {
				pr.missed = 0
			} else {
				pr.missed++
			}
			if pr.missed >= ticks(deadAfter) {
				l.declareDead(name)
				continue
			}
		}
		if !pr.out && l.dialProbe(name, pr) == nil {
			pr.out = true
			go func() {
				ping, cancel := context.WithTimeout(ctx, tickInterval)
				defer cancel()
				pr.done <- wire.Ping(ping, pr.caller)
			}()
		}
	}
}

// dialProbe connects a device's probe on first use; a ping gets one tick.
func (l *Loop) dialProbe(name string, pr *probe) error {
	if pr.caller != nil {
		return nil
	}
	d, _ := l.cluster.Device(name)
	addr, err := d.ServeHealth()
	if err != nil {
		return err
	}
	pr.caller = wire.DialCaller(l.probeNet, addr.String())
	return nil
}

// stopProbes waits out the pings in flight (Run's context has ended them)
// and releases the probe connections.
func (l *Loop) stopProbes() {
	for _, pr := range l.probes {
		if pr.out {
			<-pr.done
		}
		if pr.caller != nil {
			pr.caller.Close()
		}
	}
	clear(l.probes)
}
