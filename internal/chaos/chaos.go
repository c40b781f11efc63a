// Package chaos is a deterministic fault-injection harness for VideoPipe
// clusters. A Schedule is a declarative list of timed fault events —
// network partitions, latency spikes, loss bursts, service-pool kills and
// device pauses — either written literally or generated from a seed, so a
// resilience experiment replays the exact same fault sequence on every
// run. The Injector applies a schedule against a running core.Cluster
// through the substrates' own failure knobs (netsim.Partition/Shape,
// services.Pool.Kill, device.Pause) and always reverses every fault it
// injected, even when the run is cancelled mid-outage.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Kind identifies one class of injected fault.
type Kind int

// Fault kinds. Enums start at one.
const (
	// KindPartition severs a link (target: LinkTarget(a, b)) for the
	// event's duration, then heals it.
	KindPartition Kind = iota + 1
	// KindLatencySpike overlays a high-latency profile on a link.
	KindLatencySpike
	// KindLossBurst overlays a lossy profile on a link.
	KindLossBurst
	// KindKillService empties a service pool (target: service name), then
	// restores it to its prior size.
	KindKillService
	// KindPauseDevice freezes a device's modules and pools (target:
	// device name), then resumes them.
	KindPauseDevice
	// KindDeviceCrash kills a device permanently (target: device name):
	// it hangs and drops off the network for every peer, and is never
	// reversed — recovery is the supervisor's job, not the injector's.
	KindDeviceCrash
	// KindRunawayModule hot-swaps a hostile infinite-loop body into a live
	// module (target: ModuleTarget(pipeline, module)). Never reversed —
	// the sandbox must breach, kill, and the supervisor restart the module
	// from its original source.
	KindRunawayModule
	// KindHogModule hot-swaps a hostile allocation-bomb body into a live
	// module (target: ModuleTarget(pipeline, module)). Never reversed, as
	// with KindRunawayModule.
	KindHogModule
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPartition:
		return "partition"
	case KindLatencySpike:
		return "latency_spike"
	case KindLossBurst:
		return "loss_burst"
	case KindKillService:
		return "kill_service"
	case KindPauseDevice:
		return "pause_device"
	case KindDeviceCrash:
		return "device_crash"
	case KindRunawayModule:
		return "runaway_module"
	case KindHogModule:
		return "hog_module"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault: at offset At from the start of the run,
// inject Kind against Target and reverse it after Duration.
type Event struct {
	At       time.Duration
	Kind     Kind
	Target   string
	Duration time.Duration
}

// String renders the event in the canonical fingerprint form.
//
//vpvet:deterministic
func (e Event) String() string {
	return fmt.Sprintf("%s %s %s for %s", e.At, e.Kind, e.Target, e.Duration)
}

// Schedule is an ordered fault plan. Events need not be pre-sorted;
// consumers order by At (ties broken by kind then target) so a schedule's
// meaning is independent of literal ordering.
type Schedule []Event

// Sorted returns a copy ordered by At with a deterministic tie-break.
//
//vpvet:deterministic
func (s Schedule) Sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// Fingerprint renders the sorted schedule as one canonical string — the
// value reproducibility tests compare across same-seed runs.
//
//vpvet:deterministic
func (s Schedule) Fingerprint() string {
	var b strings.Builder
	for i, e := range s.Sorted() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// linkSep joins the two hosts of a link target. Host names come from
// cluster specs, which never contain '|'.
const linkSep = "|"

// LinkTarget encodes a host pair as an Event target for the link kinds.
// Order does not matter: the pair is canonicalized.
func LinkTarget(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + linkSep + b
}

// SplitLink decodes a link target back into its two hosts.
func SplitLink(target string) (a, b string, err error) {
	parts := strings.Split(target, linkSep)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", fmt.Errorf("chaos: bad link target %q, want \"hostA|hostB\"", target)
	}
	return parts[0], parts[1], nil
}

// ModuleTarget encodes a pipeline/module pair as an Event target for the
// module-sabotage kinds. Unlike LinkTarget the order is significant, so no
// canonicalization happens.
func ModuleTarget(pipeline, module string) string {
	return pipeline + linkSep + module
}

// SplitModuleTarget decodes a module target into pipeline and module.
func SplitModuleTarget(target string) (pipeline, module string, err error) {
	parts := strings.Split(target, linkSep)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", fmt.Errorf("chaos: bad module target %q, want \"pipeline|module\"", target)
	}
	return parts[0], parts[1], nil
}

// GenOptions bounds a generated schedule. At least one target class
// (Links, Services, Devices) must be non-empty.
type GenOptions struct {
	// Horizon is the window fault start times are drawn from; zero
	// selects 5 s.
	Horizon time.Duration
	// Events is how many faults to generate; zero selects 3.
	Events int
	// Links lists link targets (LinkTarget form) eligible for partition,
	// latency-spike and loss-burst events.
	Links []string
	// Services lists service names eligible for kill events.
	Services []string
	// Devices lists device names eligible for pause events.
	Devices []string
	// MinDuration and MaxDuration bound each fault's length; zeros select
	// 200 ms and 800 ms.
	MinDuration time.Duration
	MaxDuration time.Duration
}

// Generate derives a schedule from a seed: the same seed and options
// always produce the identical event sequence. Faults are drawn uniformly
// over the eligible kind/target space with start times in [0, Horizon)
// and durations in [MinDuration, MaxDuration].
//
//vpvet:deterministic
func Generate(seed int64, o GenOptions) Schedule {
	horizon := o.Horizon
	if horizon <= 0 {
		horizon = 5 * time.Second
	}
	events := o.Events
	if events <= 0 {
		events = 3
	}
	minD := o.MinDuration
	if minD <= 0 {
		minD = 200 * time.Millisecond
	}
	maxD := o.MaxDuration
	if maxD < minD {
		maxD = minD + 600*time.Millisecond
	}

	type choice struct {
		kind    Kind
		targets []string
	}
	var choices []choice
	if len(o.Links) > 0 {
		choices = append(choices,
			choice{KindPartition, o.Links},
			choice{KindLatencySpike, o.Links},
			choice{KindLossBurst, o.Links},
		)
	}
	if len(o.Services) > 0 {
		choices = append(choices, choice{KindKillService, o.Services})
	}
	if len(o.Devices) > 0 {
		choices = append(choices, choice{KindPauseDevice, o.Devices})
	}
	if len(choices) == 0 {
		return nil
	}

	rng := rand.New(rand.NewSource(seed))
	s := make(Schedule, 0, events)
	for i := 0; i < events; i++ {
		c := choices[rng.Intn(len(choices))]
		d := minD
		if span := maxD - minD; span > 0 {
			d += time.Duration(rng.Int63n(int64(span)))
		}
		s = append(s, Event{
			At:       time.Duration(rng.Int63n(int64(horizon))),
			Kind:     c.kind,
			Target:   c.targets[rng.Intn(len(c.targets))],
			Duration: d,
		})
	}
	return s.Sorted()
}
