package chaos

import (
	"context"
	"strings"
	"testing"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

func TestGenerateIsSeedDeterministic(t *testing.T) {
	opts := GenOptions{
		Horizon:  3 * time.Second,
		Events:   8,
		Links:    []string{LinkTarget("phone", "desktop"), LinkTarget("desktop", "tv")},
		Services: []string{"pose_detection"},
		Devices:  []string{"desktop"},
	}
	a := Generate(42, opts)
	b := Generate(42, opts)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("same seed produced different schedules:\n%s\n---\n%s", a.Fingerprint(), b.Fingerprint())
	}
	c := Generate(43, opts)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different seeds produced identical schedules")
	}
}

func TestGenerateRespectsOptions(t *testing.T) {
	opts := GenOptions{
		Horizon:     2 * time.Second,
		Events:      20,
		Links:       []string{LinkTarget("a", "b")},
		Services:    []string{"svc"},
		MinDuration: 100 * time.Millisecond,
		MaxDuration: 300 * time.Millisecond,
	}
	s := Generate(7, opts)
	if len(s) != 20 {
		t.Fatalf("generated %d events, want 20", len(s))
	}
	for i, ev := range s {
		if ev.At < 0 || ev.At >= opts.Horizon {
			t.Errorf("event %d At=%v outside horizon", i, ev.At)
		}
		if ev.Duration < opts.MinDuration || ev.Duration > opts.MaxDuration {
			t.Errorf("event %d Duration=%v outside bounds", i, ev.Duration)
		}
		switch ev.Kind {
		case KindPartition, KindLatencySpike, KindLossBurst:
			if ev.Target != "a|b" {
				t.Errorf("event %d link target %q", i, ev.Target)
			}
		case KindKillService:
			if ev.Target != "svc" {
				t.Errorf("event %d service target %q", i, ev.Target)
			}
		case KindPauseDevice:
			t.Errorf("event %d pause generated with no devices", i)
		}
		if i > 0 && s[i-1].At > ev.At {
			t.Errorf("schedule not sorted at %d", i)
		}
	}
}

func TestGenerateWithNoTargetsIsEmpty(t *testing.T) {
	if s := Generate(1, GenOptions{Events: 5}); s != nil {
		t.Errorf("targetless generation produced %v", s)
	}
}

func TestLinkTargetRoundTrip(t *testing.T) {
	if LinkTarget("b", "a") != LinkTarget("a", "b") {
		t.Error("link target not canonical")
	}
	a, b, err := SplitLink(LinkTarget("phone", "desktop"))
	if err != nil || a != "desktop" || b != "phone" {
		t.Errorf("SplitLink = %q, %q, %v", a, b, err)
	}
	for _, bad := range []string{"", "solo", "|x", "x|", "a|b|c"} {
		if _, _, err := SplitLink(bad); err == nil {
			t.Errorf("SplitLink(%q) succeeded", bad)
		}
	}
}

func TestScheduleSortingAndFingerprint(t *testing.T) {
	s := Schedule{
		{At: 2 * time.Second, Kind: KindPartition, Target: "a|b", Duration: time.Second},
		{At: time.Second, Kind: KindKillService, Target: "svc", Duration: time.Second},
		{At: time.Second, Kind: KindPartition, Target: "a|b", Duration: time.Second},
	}
	sorted := s.Sorted()
	if sorted[0].Kind != KindPartition || sorted[1].Kind != KindKillService {
		t.Errorf("tie-break order wrong: %v", sorted)
	}
	fp := s.Fingerprint()
	if !strings.Contains(fp, "partition a|b") || !strings.Contains(fp, "kill_service svc") {
		t.Errorf("fingerprint rendering: %q", fp)
	}
	// Fingerprint is order-insensitive over the literal slice.
	shuffled := Schedule{s[2], s[0], s[1]}
	if shuffled.Fingerprint() != fp {
		t.Error("fingerprint depends on literal event order")
	}
}

// testCluster builds a minimal two-device cluster with one trivial
// service on the desktop.
func testCluster(t *testing.T) *core.Cluster {
	t.Helper()
	reg := services.NewRegistry()
	err := reg.Register(services.Spec{
		Name: "echo",
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			return services.Response{Result: map[string]script.Value{"ok": true}}, nil
		},
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	c, err := core.NewCluster(core.ClusterSpec{
		Devices: []device.Config{
			{Name: "phone", Class: device.Phone},
			{Name: "desktop", Class: device.Desktop},
		},
		DefaultLink: netsim.LinkProfile{},
		Services:    []core.ServicePlacement{{Service: "echo", Device: "desktop", Instances: 2}},
	}, reg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestInjectorAppliesAndReverses(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	link := LinkTarget("phone", "desktop")
	s := Schedule{
		{At: 0, Kind: KindPartition, Target: link, Duration: 80 * time.Millisecond},
		{At: 20 * time.Millisecond, Kind: KindLatencySpike, Target: link, Duration: 80 * time.Millisecond},
		{At: 40 * time.Millisecond, Kind: KindKillService, Target: "echo", Duration: 80 * time.Millisecond},
	}

	// Observe mid-run state from a goroutine while Run blocks.
	nw := c.Network()
	pool, err := c.Pool("echo")
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	midChecked := make(chan struct{})
	go func() {
		defer close(midChecked)
		time.Sleep(60 * time.Millisecond)
		if !nw.Partitioned("phone", "desktop") {
			t.Error("partition not applied mid-run")
		}
		if !nw.Shaped("phone", "desktop") {
			t.Error("latency spike not applied mid-run")
		}
		if pool.Size() != 0 {
			t.Errorf("pool size mid-kill = %d, want 0", pool.Size())
		}
	}()

	applied := inj.Run(context.Background(), s)
	<-midChecked

	if len(applied) != 3 {
		t.Fatalf("applied %d events, want 3: %v", len(applied), applied)
	}
	// Injection order matches schedule order.
	for i, ev := range s {
		if applied[i].Kind != ev.Kind || applied[i].Target != ev.Target {
			t.Errorf("applied[%d] = %v, want %v %s", i, applied[i], ev.Kind, ev.Target)
		}
	}
	// Everything reversed.
	if nw.Partitioned("phone", "desktop") {
		t.Error("partition not healed after Run")
	}
	if nw.Shaped("phone", "desktop") {
		t.Error("shape not cleared after Run")
	}
	if pool.Size() != 2 {
		t.Errorf("pool size after restore = %d, want 2", pool.Size())
	}
	if got := c.Metrics().Meter("chaos.injected").Count(); got != 3 {
		t.Errorf("chaos.injected = %d, want 3", got)
	}
}

func TestInjectorPausesAndResumesDevice(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	desktop, _ := c.Device("desktop")
	s := Schedule{{At: 0, Kind: KindPauseDevice, Target: "desktop", Duration: 60 * time.Millisecond}}

	go func() {
		time.Sleep(30 * time.Millisecond)
		if !desktop.Paused() {
			t.Error("device not paused mid-event")
		}
	}()
	inj.Run(context.Background(), s)
	if desktop.Paused() {
		t.Error("device still paused after Run")
	}
}

// TestInjectorDeviceCrashIsPermanent injects a device_crash and verifies
// the fault is never reversed: the device stays crashed and partitioned
// from every peer after Run returns.
func TestInjectorDeviceCrashIsPermanent(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	s := Schedule{{At: 0, Kind: KindDeviceCrash, Target: "desktop", Duration: 20 * time.Millisecond}}
	applied := inj.Run(context.Background(), s)
	if len(applied) != 1 || applied[0].Kind != KindDeviceCrash {
		t.Fatalf("applied = %v, want one device_crash", applied)
	}
	desktop, _ := c.Device("desktop")
	if !desktop.Crashed() {
		t.Error("device not crashed after Run")
	}
	if !c.Network().Partitioned("phone", "desktop") {
		t.Error("crashed device's links healed: crash must be permanent")
	}
}

// TestInjectorExternalRepair verifies that with ExternalRepair set the
// injector leaves a killed pool down (the supervisor's job) while still
// reversing link faults itself.
func TestInjectorExternalRepair(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	inj.ExternalRepair = true
	link := LinkTarget("phone", "desktop")
	s := Schedule{
		{At: 0, Kind: KindKillService, Target: "echo", Duration: 20 * time.Millisecond},
		{At: 0, Kind: KindPartition, Target: link, Duration: 20 * time.Millisecond},
	}
	inj.Run(context.Background(), s)
	pool, err := c.Pool("echo")
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	if pool.Size() != 0 {
		t.Errorf("pool size = %d after external-repair run, want 0 (left for the supervisor)", pool.Size())
	}
	if c.Network().Partitioned("phone", "desktop") {
		t.Error("partition not reversed: link faults heal regardless of ExternalRepair")
	}
}

func TestInjectorReversesOnCancel(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	link := LinkTarget("phone", "desktop")
	s := Schedule{
		{At: 0, Kind: KindPartition, Target: link, Duration: time.Hour},
		// Never reached: cancellation stops further injection.
		{At: time.Hour, Kind: KindKillService, Target: "echo", Duration: time.Second},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	applied := inj.Run(ctx, s)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled Run blocked %v", elapsed)
	}
	if len(applied) != 1 {
		t.Errorf("applied = %v, want only the partition", applied)
	}
	if c.Network().Partitioned("phone", "desktop") {
		t.Error("hour-long partition not reversed on cancel")
	}
}

func TestInjectorSkipsBadTargets(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	s := Schedule{
		{At: 0, Kind: KindKillService, Target: "ghost", Duration: 10 * time.Millisecond},
		{At: 0, Kind: KindPauseDevice, Target: "ghost", Duration: 10 * time.Millisecond},
		{At: 0, Kind: KindPartition, Target: "not-a-link", Duration: 10 * time.Millisecond},
		{At: 10 * time.Millisecond, Kind: KindLossBurst, Target: LinkTarget("phone", "desktop"), Duration: 10 * time.Millisecond},
	}
	applied := inj.Run(context.Background(), s)
	if len(applied) != 1 || applied[0].Kind != KindLossBurst {
		t.Errorf("applied = %v, want only the loss burst", applied)
	}
	if got := c.Metrics().Meter("chaos.errors").Count(); got != 3 {
		t.Errorf("chaos.errors = %d, want 3", got)
	}
}
