// End-to-end resilience suite: replays deterministic fault schedules
// against full home-cluster pipelines and asserts the system recovers.
// Each scenario runs three windows — clean, faulted, clean — and must
// return to >= 90% of its pre-fault delivered rate, with the injected
// event sequence exactly reproducing the seeded schedule.
//
// The seed defaults to 1 and can be overridden with VP_CHAOS_SEED
// (`make heal` pins it explicitly).
package videopipe_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"videopipe/internal/chaos"
	"videopipe/internal/experiments"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// chaosReg builds the standard services with tiny simulated costs so the
// suite measures flow control and recovery, not model latency. Shared
// across the chaos tests; trained once.
var (
	chaosRegOnce sync.Once
	chaosRegVal  *services.Registry
	chaosRegErr  error
)

func chaosReg(t *testing.T) *services.Registry {
	t.Helper()
	chaosRegOnce.Do(func() {
		opts := services.DefaultOptions()
		opts.PoseCost = 15 * time.Millisecond
		opts.ActivityCost = 2 * time.Millisecond
		opts.RepCost = time.Millisecond
		opts.DisplayCost = time.Millisecond
		opts.FallCost = time.Millisecond
		cfg := vision.DefaultDatasetConfig()
		cfg.SequencesPerActivity = 6
		cfg.FramesPerSequence = 45
		opts.DatasetConfig = cfg
		chaosRegVal, chaosRegErr = services.NewStandardRegistry(opts)
	})
	if chaosRegErr != nil {
		t.Fatalf("NewStandardRegistry: %v", chaosRegErr)
	}
	return chaosRegVal
}

// chaosSeed reads the suite seed, defaulting to 1.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("VP_CHAOS_SEED")
	if v == "" {
		return 1
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad VP_CHAOS_SEED %q: %v", v, err)
	}
	return n
}

// resolveSchedule mirrors how the experiment derives each scenario's
// fault plan, so the suite can assert the run matched it exactly.
func resolveSchedule(sc experiments.ChaosScenario, seed int64) chaos.Schedule {
	if sc.Schedule != nil {
		return sc.Schedule.Sorted()
	}
	if sc.Gen != nil {
		return chaos.Generate(seed, *sc.Gen)
	}
	return nil
}

// scenarioHealthy applies the recovery acceptance bar to one run. The
// primary criterion is the sampled Recovery metric: after the last fault
// reverses, the delivered rate must re-sustain >= 90% of the pre-fault
// rate. The clean post-fault window must also hold that bar, relaxed
// under the race detector where compute-bound jitter dominates the few
// frames a short window delivers.
func scenarioHealthy(row experiments.ChaosRow) error {
	if row.PreFPS <= 0 {
		return fmt.Errorf("pre-fault window delivered nothing (pre %.2f fps)", row.PreFPS)
	}
	if row.Recovery < 0 {
		return fmt.Errorf("delivered rate never re-sustained 90%% of pre-fault %.2f fps", row.PreFPS)
	}
	bar := 0.9
	if chaosRaceBuild {
		bar = 0.7
	}
	if row.PostFPS < bar*row.PreFPS {
		return fmt.Errorf("post-fault fps %.2f below %.0f%% of pre-fault %.2f",
			row.PostFPS, bar*100, row.PreFPS)
	}
	return nil
}

// coLocatedContained applies the containment bar to a module-sabotage run:
// while the hostile module is breaching, being killed and restarted, the
// co-located gesture pipeline must keep >= 90% of its pre-fault rate (the
// sandbox aborts the runaway handler in bounded time, so neighbours never
// starve). Relaxed under the race detector like the recovery bar.
func coLocatedContained(row experiments.ChaosRow) error {
	if row.CoPreFPS <= 0 {
		return fmt.Errorf("co-located pre-fault window delivered nothing (pre %.2f fps)", row.CoPreFPS)
	}
	bar := 0.9
	if chaosRaceBuild {
		bar = 0.7
	}
	if row.CoDuringFPS < bar*row.CoPreFPS {
		return fmt.Errorf("co-located during-fault fps %.2f below %.0f%% of pre-fault %.2f",
			row.CoDuringFPS, bar*100, row.CoPreFPS)
	}
	return nil
}

func TestChaosResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e needs multi-second measurement windows")
	}
	reg := chaosReg(t)
	seed := chaosSeed(t)
	baseline := runtime.NumGoroutine()

	// Scenarios where the fault freezes whole stages long enough for the
	// monitor's stall detector to flag the pipeline degraded. With the
	// supervisor in the loop a killed pool restarts within a couple of
	// probe intervals — faster than the 500 ms stall bar — so only faults
	// it must wait out (a reboot) or detect slowly (a device death) still
	// show degraded time.
	wantDegraded := map[string]bool{"desktop_reboot": true, "device_crash": true}

	// The supervisor's recovery journal per scenario. The injector runs
	// with ExternalRepair, so every entry here is the only reason the
	// scenario recovers — and the journal is seed-deterministic by
	// construction (no timestamps, sorted iteration, config-order
	// targets), so these are exact matches, never retried.
	wantJournal := map[string][]string{
		"flaky_wifi":     {}, // link faults heal on their own; no intervention
		"desktop_reboot": {}, // reboot completes before the dead-declaration bar
		"pose_pool_kill": {"restart_service " + services.PoseDetector},
		"device_crash": {
			"device_dead tv",
			"redeploy_service " + services.Display + " tv->desktop",
			"migrate_module chaos_device_crash.display tv->desktop",
		},
		// Module sabotage: the sandbox kills the hostile module after
		// repeated budget breaches and the supervisor restarts it once,
		// from its original source.
		"runaway_module": {"restart_module chaos_runaway_module.rep_counter"},
		"hog_module":     {"restart_module chaos_hog_module.activity_recognition"},
	}

	// Module-sabotage scenarios additionally assert containment: the
	// co-located gesture pipeline keeps its rate during the fault.
	wantContained := map[string]bool{"runaway_module": true, "hog_module": true}

	for _, sc := range experiments.SupervisedChaosScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			opts := experiments.Options{RunDuration: 2 * time.Second, Registry: reg, Supervise: true}

			// The recovery bar is statistical (delivered-rate windows on a
			// loaded scheduler), so one retry absorbs machine noise; the
			// determinism assertions below never get a retry.
			var row experiments.ChaosRow
			const attempts = 2
			for i := 1; ; i++ {
				rows, err := experiments.Chaos(opts, seed, []experiments.ChaosScenario{sc})
				if err != nil {
					t.Fatalf("Chaos: %v", err)
				}
				row = rows[0]
				herr := scenarioHealthy(row)
				if herr == nil && wantContained[sc.Name] {
					herr = coLocatedContained(row)
				}
				if herr == nil {
					break
				}
				if i < attempts {
					t.Logf("attempt %d: %v; retrying", i, herr)
					continue
				}
				t.Errorf("after %d attempts: %v", attempts, herr)
				break
			}
			t.Logf("pre %.2f fps, during %.2f, post %.2f, recovery %v, degraded %.1fs",
				row.PreFPS, row.DuringFPS, row.PostFPS, row.Recovery, row.DegradedSeconds)
			if wantContained[sc.Name] {
				t.Logf("co-located pre %.2f fps, during %.2f", row.CoPreFPS, row.CoDuringFPS)
			}

			// Determinism: the run's fingerprint matches the schedule
			// re-derived from the same seed, and the injector applied
			// exactly that event sequence, in order.
			want := resolveSchedule(sc, seed)
			if len(want) == 0 {
				t.Fatal("scenario resolved to an empty schedule")
			}
			if got := want.Fingerprint(); row.Fingerprint != got {
				t.Errorf("fingerprint mismatch:\nrun:  %q\nre-derived: %q", row.Fingerprint, got)
			}
			if len(row.Applied) != len(want) {
				t.Fatalf("applied %d faults, schedule has %d: %v", len(row.Applied), len(want), row.Applied)
			}
			for i, ev := range want {
				got := row.Applied[i]
				if got.Kind != ev.Kind || got.Target != ev.Target || got.At != ev.At {
					t.Errorf("applied[%d] = %v, schedule wants %v", i, got, ev)
				}
			}

			if wantDegraded[sc.Name] && row.DegradedSeconds <= 0 {
				t.Errorf("monitor observed no degraded time for %s", sc.Name)
			}

			// Recovery journal: exactly the expected actions, in order.
			wantJ, known := wantJournal[sc.Name]
			if !known {
				t.Fatalf("no expected journal for scenario %s", sc.Name)
			}
			if len(row.Journal) != len(wantJ) {
				t.Fatalf("journal = %v, want %v", row.Journal, wantJ)
			}
			for i := range wantJ {
				if row.Journal[i] != wantJ[i] {
					t.Fatalf("journal = %v, want %v", row.Journal, wantJ)
				}
			}
		})
	}

	waitNoGoroutineLeak(t, baseline)
}

// TestChaosSameSeedSameSchedule asserts in-suite that replaying a seed
// yields byte-identical fault plans for every default scenario, and that
// a different seed actually perturbs the generated ones.
func TestChaosSameSeedSameSchedule(t *testing.T) {
	seed := chaosSeed(t)
	for _, sc := range experiments.SupervisedChaosScenarios() {
		a := resolveSchedule(sc, seed)
		b := resolveSchedule(sc, seed)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: same seed produced different schedules:\n%s\n---\n%s",
				sc.Name, a.Fingerprint(), b.Fingerprint())
		}
		if sc.Gen != nil {
			c := resolveSchedule(sc, seed+1)
			if a.Fingerprint() == c.Fingerprint() {
				t.Errorf("%s: seeds %d and %d generated identical schedules", sc.Name, seed, seed+1)
			}
		}
	}
}

// waitNoGoroutineLeak polls until the goroutine count returns to the
// pre-suite baseline (plus scheduler slack), failing with a full stack
// dump if it never drains.
func waitNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
