package core_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/services"
)

// startLoop runs a control loop in the background and returns it plus a
// stop function that blocks until the loop has fully exited — required
// before closing the cluster, since an in-flight tick may still be probing
// or migrating.
func startLoop(t *testing.T, c *core.Cluster, cfg core.LoopConfig) (*core.Loop, func()) {
	t.Helper()
	l := core.NewLoop(c, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Run(ctx)
	}()
	var stopped bool
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return l, stop
}

// TestSupervisorRestartsKilledPool kills the pose pool mid-run and leaves
// recovery entirely to the supervisor: the pool comes back at its old
// size, frames flow again, and the journal records exactly one restart.
func TestSupervisorRestartsKilledPool(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("supfit", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sup, stop := startLoop(t, c, core.LoopConfig{Heal: true})

	reg := c.Metrics()
	delivered := func() uint64 {
		return reg.Meter("pipeline.supfit.display.frames_done").Count()
	}
	go func() {
		if _, err := p.Run(context.Background(), 6*time.Second); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	waitCond(t, 3*time.Second, func() bool { return delivered() >= 3 })

	pool, err := c.Pool(services.PoseDetector)
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	prev := pool.Size()
	pool.Kill(prev)

	// No manual repair: the supervisor must notice and restore the pool.
	waitCond(t, 3*time.Second, func() bool { return pool.Size() == prev })
	at := delivered()
	waitCond(t, 3*time.Second, func() bool { return delivered() >= at+3 })

	stop()
	journal := sup.JournalStrings()
	want := []string{"restart_service " + services.PoseDetector}
	if len(journal) != 1 || journal[0] != want[0] {
		t.Errorf("journal = %v, want %v", journal, want)
	}
	if got := reg.Meter("supervisor.restarts." + services.PoseDetector).Count(); got != 1 {
		t.Errorf("restart meter = %d, want 1", got)
	}
}

// TestSupervisorRestartBudget exhausts the restart budget end to end: a
// pool killed again right after each restart is restored five times, each
// after a longer backoff, and then left down. (TestSupervisorTickArithmetic
// pins the budget and the backoff in ticks.)
func TestSupervisorRestartBudget(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("budfit", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sup, stop := startLoop(t, c, core.LoopConfig{Heal: true})

	go func() {
		if _, err := p.Run(context.Background(), 5*time.Second); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	reg := c.Metrics()
	waitCond(t, 3*time.Second, func() bool {
		return reg.Meter("pipeline.budfit.display.frames_done").Count() >= 3
	})

	pool, err := c.Pool(services.PoseDetector)
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	// The backoff after restarts one to four holds the next one back 0.3,
	// 0.5, 1 and 2 s; the pool never stays up long enough to refill the
	// budget.
	const budget = 5
	for i := 0; i < budget; i++ {
		pool.Kill(pool.Size())
		waitCond(t, 4*time.Second, func() bool { return pool.Size() > 0 })
	}

	// Kill it again: the budget is spent, so the pool must stay down past
	// the last restart's 2 s backoff.
	pool.Kill(pool.Size())
	time.Sleep(2500 * time.Millisecond)
	if pool.Size() != 0 {
		t.Errorf("pool restarted beyond its budget (size=%d)", pool.Size())
	}
	stop()
	if journal := sup.JournalStrings(); len(journal) != budget {
		t.Errorf("journal = %v, want exactly %d restarts", journal, budget)
	}
}

// TestSupervisorDeviceFailover crashes the TV mid-run: the supervisor
// declares it dead after missed probes, moves the display service to the
// desktop, live-migrates the display module, and the pipeline keeps
// delivering frames — with no recovery code in the test.
func TestSupervisorDeviceFailover(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("failfit", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sup, stop := startLoop(t, c, core.LoopConfig{Heal: true})

	reg := c.Metrics()
	delivered := func() uint64 {
		return reg.Meter("pipeline.failfit.display.frames_done").Count()
	}
	go func() {
		if _, err := p.Run(context.Background(), 8*time.Second); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	waitCond(t, 3*time.Second, func() bool { return delivered() >= 3 })

	// Crash the TV: permanently hung and off the LAN for its peers.
	tv, _ := c.Device("tv")
	tv.Crash()
	c.Network().Partition("phone", "tv")
	c.Network().Partition("desktop", "tv")

	waitCond(t, 4*time.Second, func() bool { return len(sup.Journal()) >= 3 })
	at := delivered()
	waitCond(t, 4*time.Second, func() bool { return delivered() >= at+3 })
	stop()

	want := []string{
		"device_dead tv",
		"redeploy_service " + services.Display + " tv->desktop",
		"migrate_module failfit.display tv->desktop",
	}
	journal := sup.JournalStrings()
	if len(journal) != len(want) {
		t.Fatalf("journal = %v, want %v", journal, want)
	}
	for i := range want {
		if journal[i] != want[i] {
			t.Fatalf("journal = %v, want %v", journal, want)
		}
	}
	if !c.IsDown("tv") {
		t.Error("tv not marked down")
	}
	if got := p.Placement()["display"]; got != "desktop" {
		t.Errorf("display placed on %q after failover, want desktop", got)
	}
	if host, _ := c.ServiceHost(services.Display); host != "desktop" {
		t.Errorf("display service hosted on %q after failover, want desktop", host)
	}
	if got := reg.Meter("pipeline.failfit.recoveries").Count(); got != 1 {
		t.Errorf("recoveries meter = %d, want 1", got)
	}
}

// TestFailOverMigratesPastPinnedOrphan kills the tv under a fitness lane
// that also runs ambilight, a module pinned to the tv whose name sorts
// before display. The pin cannot move, but it must not strand display:
// display follows its service to the desktop, and the pinned module is the
// one FailOver reports.
func TestFailOverMigratesPastPinnedOrphan(t *testing.T) {
	c := homeCluster(t)
	cfg := apps.FitnessConfig("pinfail", 10, "squat")
	cfg.Modules = append(cfg.Modules, core.ModuleConfig{
		Name: "ambilight", Device: "tv", Source: `function event_received(m) { frame_done(); }`,
	})
	p, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if got := p.Placement(); got["ambilight"] != "tv" || got["display"] != "tv" {
		t.Fatalf("launch placement = %v, want ambilight and display on the tv", got)
	}

	// What the supervisor does before re-planning: mark the device down and
	// move its service pools to a survivor.
	c.MarkDown("tv")
	if err := c.RedeployService(services.Display, "desktop", 1); err != nil {
		t.Fatalf("RedeployService: %v", err)
	}
	migrated, err := p.FailOver("tv")
	if len(migrated) != 1 || migrated[0] != "display" {
		t.Errorf("migrated = %v, want [display]", migrated)
	}
	if err == nil || !strings.Contains(err.Error(), "ambilight") {
		t.Errorf("FailOver error = %v, want it to report the stranded ambilight", err)
	}
	if got := p.Placement(); got["display"] != "desktop" || got["ambilight"] != "tv" {
		t.Errorf("placement after failover = %v, want display on the desktop and ambilight left on its pin", got)
	}
}

// TestSupervisorShutdownLeavesNoGoroutines runs a full supervised cluster
// lifecycle and verifies the goroutine count returns to baseline — the
// supervisor's probes, monitors and any respawned modules must all stop.
func TestSupervisorShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	c, err := core.NewCluster(apps.HomeClusterSpec(), fastRegistry(t))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	p, err := c.Launch(apps.FitnessConfig("leakfit", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		c.Close()
		t.Fatalf("Launch: %v", err)
	}
	sup, stop := startLoop(t, c, core.LoopConfig{Heal: true})

	if _, err := p.Run(context.Background(), time.Second); err != nil {
		t.Errorf("Run: %v", err)
	}
	// Exercise a recovery so respawn machinery is part of the lifecycle.
	pool, err := c.Pool(services.PoseDetector)
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	pool.Kill(pool.Size())
	waitCond(t, 3*time.Second, func() bool { return pool.Size() > 0 })
	_ = sup

	stop()
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: base=%d now=%d\n%s", base, runtime.NumGoroutine(), buf[:n])
}

// respawnCases drives the one respawn routine through both of its entry
// points: a restart in place (display already runs on the tv) and a
// migration across devices.
var respawnCases = []struct {
	name    string
	target  string
	respawn func(p *core.Pipeline, module string) error
}{
	{"same device", "", func(p *core.Pipeline, module string) error { return p.RestartModule(module) }},
	{"cross device", "desktop", func(p *core.Pipeline, module string) error { return p.MigrateModule(module, "desktop") }},
}

// TestMigrateAndRestartRespawn respawns a stateful mid-chain module while
// frames are flowing and checks, for a restart in place and for a
// migration alike: its globals carry over (matching
// _PRESERVATION_VERSION), the predecessor's route follows it, no credit is
// lost across the quiesce, and the recovery is counted exactly once.
func TestMigrateAndRestartRespawn(t *testing.T) {
	for _, tc := range respawnCases {
		t.Run(tc.name, func(t *testing.T) {
			c := homeCluster(t)
			cfg := core.PipelineConfig{
				Name: "respawn",
				Modules: []core.ModuleConfig{
					{Name: "head", Next: []string{"counter"}, Source: `function event_received(m) {
  call_module("counter", {frame_ref: m.frame_ref});
}`},
					{Name: "counter", Next: []string{"tail"}, Source: `var _PRESERVATION_VERSION = 3;
var seen = 0;
function event_received(m) {
  seen = seen + 1;
  call_module("tail", {seen: seen});
}`},
					// tail is never respawned, so it can tell a counter that
					// started over from one that carried on.
					{Name: "tail", Device: "tv", Source: `var last = 0;
function event_received(m) {
  if (m.seen <= last) { metric("regressed", 1); }
  last = m.seen;
  metric("seen", m.seen);
  frame_done();
}`},
				},
				Source: core.SourceConfig{Device: "phone", FirstModule: "head", FPS: 20, Width: 64, Height: 48},
			}
			p, err := c.Launch(cfg, core.CoLocatePlanner{})
			if err != nil {
				t.Fatalf("Launch: %v", err)
			}
			defer p.Close()
			wantDev := tc.target
			if wantDev == "" {
				wantDev = p.Placement()["counter"]
			}

			reg := c.Metrics()
			delivered := func() uint64 { return reg.Meter("pipeline.respawn.tail.frames_done").Count() }
			result := make(chan core.RunResult, 1)
			go func() {
				res, err := p.Run(context.Background(), 3*time.Second)
				if err != nil {
					t.Errorf("Run: %v", err)
				}
				result <- res
			}()
			waitCond(t, 3*time.Second, func() bool { return delivered() >= 3 })

			if err := tc.respawn(p, "counter"); err != nil {
				t.Fatalf("respawn: %v", err)
			}
			if got := p.Placement()["counter"]; got != wantDev {
				t.Errorf("counter on %q after respawn, want %q", got, wantDev)
			}
			if got := reg.Meter("pipeline.respawn.recoveries").Count(); got != 1 {
				t.Errorf("recoveries = %d, want exactly 1", got)
			}
			// Frames reach the sink again only through head's repointed
			// route and the replacement's own route to tail.
			at := delivered()
			waitCond(t, 3*time.Second, func() bool { return delivered() >= at+3 })

			res := <-result
			if snap, ok := res.Stages["regressed"]; ok && snap.Count > 0 {
				t.Errorf("counter restarted from scratch %d time(s): its globals were not carried", snap.Count)
			}
			if max := res.Stages["seen"].Max; max < time.Duration(at+3)*time.Millisecond {
				t.Errorf("highest count seen = %v, want at least %d", max, at+3)
			}
			waitCond(t, 2*time.Second, func() bool { return p.CreditsAvail() == p.Credits() })
		})
	}
}

// TestMigrateModuleCloseRace hammers Pipeline.Close against an in-flight
// respawn, in place and across devices: whichever wins, no module instance
// may survive (leaked goroutines) and nothing may double-close or panic.
func TestMigrateModuleCloseRace(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range respawnCases {
		for i := 0; i < 3; i++ {
			c, err := core.NewCluster(apps.HomeClusterSpec(), fastRegistry(t))
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			p, err := c.Launch(apps.FitnessConfig("racefit", 10, "squat"), core.CoLocatePlanner{})
			if err != nil {
				c.Close()
				t.Fatalf("Launch: %v", err)
			}
			respawned := make(chan error, 1)
			go func() { respawned <- tc.respawn(p, "display") }()
			time.Sleep(time.Duration(i) * 300 * time.Microsecond)
			p.Close()
			// Either outcome is legal; what matters is that a post-close
			// respawn did not publish a live module.
			<-respawned
			for _, mod := range p.Modules() {
				if m, ok := p.Module(mod); ok && m != nil {
					m.Close() // must be idempotent no-op after pipeline Close
				}
			}
			c.Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after close/respawn race: base=%d now=%d\n%s", base, runtime.NumGoroutine(), buf[:n])
}

// TestLoopDegradedSecondsAccrueOverPartition runs one loop, heal phase on,
// through a 3 s partition outage: the loop's DegradedSeconds must charge
// at least 1 s of it.
func TestLoopDegradedSecondsAccrueOverPartition(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("degfit", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	l, stop := startLoop(t, c, core.LoopConfig{StallAfter: 300 * time.Millisecond, Heal: true})

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Run(context.Background(), 6*time.Second); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	defer func() { <-done }()

	reg := c.Metrics()
	delivered := func() uint64 { return reg.Meter("pipeline.degfit.display.frames_done").Count() }
	waitCond(t, 3*time.Second, func() bool { return delivered() >= 3 })

	c.Network().Partition("phone", "desktop")
	time.Sleep(3 * time.Second)
	c.Network().Heal("phone", "desktop")
	at := delivered()
	waitCond(t, 3*time.Second, func() bool { return delivered() >= at+3 })
	stop()

	if got := l.DegradedSeconds("degfit"); got < 1 {
		t.Errorf("loop accrued only %.0f ms over a 3 s partition", got*1000)
	}
}
