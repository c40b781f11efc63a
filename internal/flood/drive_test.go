package flood_test

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/experiments"
	"videopipe/internal/flood"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

// slowSinkSrc hands every frame to the (deliberately slow) sink service
// and completes it.
const slowSinkSrc = `
	function event_received(message) {
		call_service("slow_sink", {frame_ref: message.frame_ref});
		frame_done();
	}
`

// slowScenario is a one-module pipeline backed by a sink service with a
// fixed simulated cost — a workload whose capacity is known by
// construction (workers / cost), so the harness's own claims can be
// checked against arithmetic instead of against itself. A tuned run may
// scale the sink to two instances.
func slowScenario(cost time.Duration, workers int) experiments.FloodScenario {
	return experiments.FloodScenario{
		Mix: "slowsink",
		Spec: core.ClusterSpec{
			Devices: []device.Config{
				{Name: "phone", Class: device.Phone},
				{Name: "desktop", Class: device.Desktop},
			},
			DefaultLink: netsim.WiFi,
			Services:    []core.ServicePlacement{{Service: "slow_sink", Device: "desktop"}},
		},
		Registry: func() (*services.Registry, error) {
			reg := services.NewRegistry()
			err := reg.Register(services.Spec{
				Name:    "slow_sink",
				Cost:    cost,
				Workers: workers,
				Handler: func(context.Context, services.Request) (services.Response, error) {
					return services.Response{}, nil
				},
				MaxInstances: 2,
			})
			return reg, err
		},
		Pipeline: func(name string, _ int) core.PipelineConfig {
			return core.PipelineConfig{
				Name: name,
				Modules: []core.ModuleConfig{{
					Name:     "sink",
					Source:   slowSinkSrc,
					Services: []string{"slow_sink"},
				}},
				Source: core.SourceConfig{
					Device:      "phone",
					FirstModule: "sink",
					FPS:         10,
					Width:       64,
					Height:      48,
				},
			}
		},
	}
}

// TestOpenLoopUnderOverload is the harness-correctness proof: drive a
// sink that can serve ~16 eps at 100 eps and check that the *generator*
// stays on schedule while the *system* shows the overload — rising
// latency and source-side drops. A closed-loop (blocking) generator would
// fail every one of these assertions: it would fall behind schedule,
// admit everything, and report flattering latency.
func TestOpenLoopUnderOverload(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sc := slowScenario(60*time.Millisecond, 1)

	overload, err := flood.Run(sc, flood.Options{
		Pipelines: 1,
		Rate:      100,
		Horizon:   1200 * time.Millisecond,
		Process:   flood.Uniform,
		Seed:      5,
	})
	if err != nil {
		t.Fatalf("overload run: %v", err)
	}
	light, err := flood.Run(sc, flood.Options{
		Pipelines: 1,
		Rate:      5,
		Horizon:   1200 * time.Millisecond,
		Process:   flood.Uniform,
		Seed:      5,
	})
	if err != nil {
		t.Fatalf("light run: %v", err)
	}

	// Offered load is exactly the schedule, independent of the sink.
	if overload.Offered != 120 {
		t.Errorf("overload offered %d events, want 120 (uniform 100 eps x 1.2s)", overload.Offered)
	}
	if overload.Admitted+overload.DroppedSource != uint64(overload.Offered) {
		t.Errorf("admitted %d + dropped %d != offered %d",
			overload.Admitted, overload.DroppedSource, overload.Offered)
	}
	// The generator itself never fell behind: open loop means injection
	// timing is independent of the system's backlog.
	if p99 := overload.GenLateness.P99; p99 > 150*time.Millisecond {
		t.Errorf("generator lateness p99 = %v under overload; the loop is not open", p99)
	}
	// Overload shows up where it should: drops at the source...
	if overload.DroppedSource == 0 {
		t.Error("no source drops at 6x capacity; admission is not shedding")
	}
	if light.DroppedSource != 0 {
		t.Errorf("light run dropped %d frames at 1/3 capacity", light.DroppedSource)
	}
	// ...and in the latency distribution, charged from the scheduled
	// arrival instant.
	if overload.E2E.P99 <= light.E2E.P99 {
		t.Errorf("overload p99 %v not above light-load p99 %v", overload.E2E.P99, light.E2E.P99)
	}
	if light.Delivered == 0 || overload.Delivered == 0 {
		t.Errorf("deliveries: light %d, overload %d, want both > 0", light.Delivered, overload.Delivered)
	}

	waitNoGoroutineLeak(t, baseline)
}

// TestRunReproducible pins the schedule side of a run: same seed, same
// offered event count, byte-identical per-pipeline schedules.
func TestRunReproducible(t *testing.T) {
	sc := slowScenario(2*time.Millisecond, 4)
	opts := flood.Options{
		Pipelines: 2,
		Rate:      30,
		Horizon:   400 * time.Millisecond,
		Process:   flood.Poisson,
		Seed:      11,
	}
	a, err := flood.Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flood.Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered != b.Offered {
		t.Errorf("same seed offered %d vs %d events", a.Offered, b.Offered)
	}
	for i := 0; i < opts.Pipelines; i++ {
		s1, err := flood.Generate(opts.Process, opts.Rate, opts.Horizon, flood.PipelineSeed(opts.Seed, i))
		if err != nil {
			t.Fatal(err)
		}
		s2, err := flood.Generate(opts.Process, opts.Rate, opts.Horizon, flood.PipelineSeed(opts.Seed, i))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s1.Offsets, s2.Offsets) {
			t.Errorf("pipeline %d schedules differ across identical runs", i)
		}
	}
}

// TestSweepFindsKnee smoke-tests the ladder against a sink whose capacity
// is known by construction (~50 eps): the sweep must record multiple
// steps, estimate a positive knee, and stop for a saturation reason
// rather than running off the end of the ladder.
func TestSweepFindsKnee(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sc := slowScenario(20*time.Millisecond, 1)
	sw, err := flood.Sweep(sc, flood.SweepOptions{
		Base: flood.Options{
			Pipelines: 1,
			Horizon:   600 * time.Millisecond,
			Process:   flood.Uniform,
			Seed:      3,
		},
		StartRate: 10,
		Factor:    2,
		MaxSteps:  6,
		P99Budget: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Steps) < 2 {
		t.Fatalf("sweep recorded %d steps, want >= 2", len(sw.Steps))
	}
	if sw.KneeEPS <= 0 {
		t.Errorf("knee estimate %v, want > 0", sw.KneeEPS)
	}
	if sw.StopReason == "" {
		t.Error("sweep finished without a stop reason")
	}
	// 10 eps against a 50 eps sink must not read as saturation.
	first := sw.Steps[0].Result
	if first.AchievedEPS < 0.9*first.OfferedEPS {
		t.Errorf("first step achieved %.3g of offered %.3g eps; harness is losing frames at 1/5 capacity",
			first.AchievedEPS, first.OfferedEPS)
	}
	waitNoGoroutineLeak(t, baseline)
}

// TestTunedSweepScalesAndJoins runs the ladder with the tuner on past one
// sink instance's capacity (~50 eps): some rung's journal must scale the
// pool out, and once the sweep returns every goroutine a rung started — its
// cluster's and its tuner's — is gone, carried setpoints included.
func TestTunedSweepScalesAndJoins(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sc := slowScenario(20*time.Millisecond, 1)
	sw, err := flood.Sweep(sc, flood.SweepOptions{
		Base: flood.Options{
			Pipelines: 1,
			Horizon:   800 * time.Millisecond,
			Process:   flood.Uniform,
			Seed:      3,
			Tune:      true,
		},
		StartRate: 40,
		Factor:    2,
		MaxSteps:  3,
		P99Budget: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	scaled := false
	for _, st := range sw.Steps {
		for _, a := range st.Result.TunerActions {
			scaled = scaled || strings.HasPrefix(a, "scale_pool slow_sink ")
		}
	}
	if !scaled {
		for i, st := range sw.Steps {
			t.Logf("step %d: %v", i, st.Result.TunerActions)
		}
		t.Error("no rung scaled the saturated sink pool out")
	}
	waitNoGoroutineLeak(t, baseline)
}

// waitNoGoroutineLeak polls until the goroutine count returns to the
// pre-test baseline (plus scheduler slack), failing with a full stack
// dump if it never drains — same contract as the chaos suite's check.
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
		time.Sleep(20 * time.Millisecond)
	}
}
