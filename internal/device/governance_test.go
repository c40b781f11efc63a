package device

import (
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/script"
)

// TestModuleBreachKillQuarantine walks the full sandbox discipline: each
// runaway event breaches the instruction budget, the third consecutive
// breach kills the module, and a killed module abandons every further
// event so frame credits keep flowing back to the source.
func TestModuleBreachKillQuarantine(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	m, err := d.SpawnModule(ModuleSpec{
		Name:   "runaway",
		Source: `function event_received(m) { while (true) {} }`,
		Limits: script.Limits{Instructions: 5000},
	})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	var abandoned atomic.Int64
	m.SetFrameAbandoned(func() { abandoned.Add(1) })

	for i := 0; i < maxBreaches; i++ {
		if err := queue(m, nil, frame.MustNew(4, 4)); err != nil {
			t.Fatalf("Inject %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return m.Killed() })
	if got := d.reg.Meter("script.runaway.breaches").Count(); got != maxBreaches {
		t.Errorf("breaches = %d, want %d", got, maxBreaches)
	}
	if got := d.reg.Meter("script.runaway.killed").Count(); got != 1 {
		t.Errorf("killed meter = %d, want 1", got)
	}
	// Every breached event abandoned its frame (credit returned).
	waitFor(t, func() bool { return abandoned.Load() == maxBreaches })

	// Quarantine: events after the kill never reach the handler; their
	// frames are abandoned immediately and the store drains.
	events := d.reg.Meter("module.runaway.events").Count()
	if err := queue(m, nil, frame.MustNew(4, 4)); err != nil {
		t.Fatalf("Inject after kill: %v", err)
	}
	waitFor(t, func() bool { return abandoned.Load() == maxBreaches+1 })
	if got := d.reg.Meter("module.runaway.events").Count(); got != events {
		t.Errorf("quarantined event reached the handler (events %d -> %d)", events, got)
	}
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

// TestModuleBreachCountResetsOnSuccess: the kill threshold demands
// consecutive breaches — an occasional expensive event is tolerated.
func TestModuleBreachCountResetsOnSuccess(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		function event_received(m) {
			if (m.spin > 0) { while (true) {} }
		}
	`
	m, err := d.SpawnModule(ModuleSpec{
		Name:   "sometimes",
		Source: src,
		Limits: script.Limits{Instructions: 5000},
	})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	// breach, breach, success — repeated: never 3 consecutive breaches.
	for round := 0; round < 3; round++ {
		for _, spin := range []float64{1, 1, 0} {
			if err := queue(m, objectOf(map[string]script.Value{"spin": spin}), nil); err != nil {
				t.Fatalf("Inject: %v", err)
			}
		}
	}
	waitFor(t, func() bool {
		return d.reg.Meter("script.sometimes.breaches").Count() == 6
	})
	if m.Killed() {
		t.Error("module killed despite breach count resetting on success")
	}
}

// TestModuleOutputBudgetBreach: bytes emitted through the log host call
// count against output_limit, and the breach is uncatchable by script.
func TestModuleOutputBudgetBreach(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		function event_received(m) {
			try { log("0123456789012345678901234567890123456789"); } catch (e) {}
			log("should never run: the handler is already dead");
		}
	`
	m, err := d.SpawnModule(ModuleSpec{
		Name:   "chatty",
		Source: src,
		Limits: script.Limits{Output: 16},
	})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	if err := queue(m, nil, nil); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool {
		return d.reg.Meter("script.chatty.breaches").Count() == 1
	})
	if got := d.reg.Meter("module.chatty.logs").Count(); got != 0 {
		t.Errorf("logs emitted = %d, want 0 (both exceed the 16-byte budget)", got)
	}
}

// TestModuleRestoreVersionGate: preserved state is restored only when its
// _PRESERVATION_VERSION matches the code now running; a mismatch discards
// it and the module starts fresh.
func TestModuleRestoreVersionGate(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		var _PRESERVATION_VERSION = 1;
		var total = 0;
		function event_received(m) { total = total + m.value; metric("total", total); }
	`
	m1, err := d.SpawnModule(ModuleSpec{Name: "counter", Source: src})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	if err := queue(m1, objectOf(map[string]script.Value{"value": float64(5)}), nil); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return d.reg.Meter("module.counter.events").Count() == 1 })
	m1.Close()
	snap := m1.SnapshotState()
	if snap.Version() != 1 {
		t.Fatalf("snapshot version = %d, want 1", snap.Version())
	}

	// Same version: state carries over (total resumes at 5).
	m2, err := d.SpawnModule(ModuleSpec{Name: "counter2", Source: src, Restore: snap})
	if err != nil {
		t.Fatalf("SpawnModule counter2: %v", err)
	}
	if err := queue(m2, objectOf(map[string]script.Value{"value": float64(1)}), nil); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return d.reg.Histogram("stage.total").Count() == 2 })
	if got := d.reg.Histogram("stage.total").Snapshot().Max; got != 6*time.Millisecond {
		t.Errorf("restored total observation = %v, want 6 (as ms)", got)
	}

	// Version bump: the old snapshot is discarded, total restarts at 0.
	srcV2 := `
		var _PRESERVATION_VERSION = 2;
		var total = 0;
		function event_received(m) { total = total + m.value; metric("total2", total); }
	`
	m3, err := d.SpawnModule(ModuleSpec{Name: "counter3", Source: srcV2, Restore: snap})
	if err != nil {
		t.Fatalf("SpawnModule counter3: %v", err)
	}
	waitFor(t, func() bool {
		return d.reg.Meter("module.counter3.restore_discarded").Count() == 1
	})
	if err := queue(m3, objectOf(map[string]script.Value{"value": float64(2)}), nil); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return d.reg.Histogram("stage.total2").Count() == 1 })
	if got := d.reg.Histogram("stage.total2").Snapshot().Max; got != 2*time.Millisecond {
		t.Errorf("fresh total observation = %v, want 2 (as ms)", got)
	}
}
