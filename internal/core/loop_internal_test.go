package core

import (
	"context"
	"encoding/json"
	"slices"
	"testing"
	"time"
)

// json.Marshal of a report is the loop's machine-readable view: every lane
// with its credit window, every pool, and the tail of the journal.
func TestLoopReportMarshalsJournalAndCredits(t *testing.T) {
	c, _ := oneLaneCluster(t)
	l := NewTuner(c, TunerConfig{})
	l.step(context.Background())
	l.apply(tunerAct{act: Action{Kind: ActionResizeCredits, Target: "lane", From: "2", To: "3"}, n: 3})
	l.step(context.Background())

	out, err := json.Marshal(l.Report())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Pipelines []struct {
			Pipeline string `json:"pipeline"`
			Credits  int    `json:"credits"`
		} `json:"pipelines"`
		Services []struct {
			Service string `json:"service"`
		} `json:"services"`
		Journal []string `json:"journal"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Pipelines) != 1 || got.Pipelines[0].Pipeline != "lane" || got.Pipelines[0].Credits != 3 {
		t.Errorf("pipelines = %+v, want lane at 3 credits\n%s", got.Pipelines, out)
	}
	if len(got.Services) != 1 || got.Services[0].Service != "svc" {
		t.Errorf("services = %+v, want svc\n%s", got.Services, out)
	}
	if want := []string{"resize_credits lane 2->3"}; !slices.Equal(got.Journal, want) {
		t.Errorf("journal = %q, want %q", got.Journal, want)
	}
}

// A registry reset between harness phases moves every meter backwards. The
// sample phase reads that as a new baseline, not as ~2^64 fresh module
// errors that flag a healthy running pipeline degraded.
func TestLoopRegistryResetIsNotDegraded(t *testing.T) {
	c, p := oneLaneCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.Run(ctx, 5*time.Second) // cancelled below; the result is not read
	}()
	defer func() {
		cancel()
		<-done
	}()
	running := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.running
	}
	for deadline := time.Now().Add(3 * time.Second); !running(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never started running")
		}
	}

	l := NewLoop(c, LoopConfig{})
	degraded := func() bool {
		l.step(ctx)
		return l.Report().Pipelines[0].Degraded
	}
	c.Metrics().Meter("module.lane.sink.errors").Mark()
	if !degraded() {
		t.Fatal("a fresh module error did not mark the running lane degraded")
	}
	c.Metrics().Reset()
	if degraded() {
		t.Error("a registry reset marked the running lane degraded")
	}
}

// TestSupervisorTickArithmetic pins the heal phase's thresholds, each a
// time the loop counts in whole 100 ms ticks: the counts, not the times,
// are what the chaos journals depend on.
func TestSupervisorTickArithmetic(t *testing.T) {
	backoff := func(attempt int) int {
		var b restartBudget
		b.backOff(attempt)
		return b.wait
	}
	// spend claims restarts until the budget refuses one, and returns how
	// many it granted.
	spend := func(b *restartBudget) int {
		n := 0
		for ; n < 100; n++ {
			if _, ok := b.claim(); !ok {
				break
			}
		}
		return n
	}
	// refill spends a budget, then counts the healthy ticks until it grants
	// a restart again.
	refill := func() int {
		var b restartBudget
		spend(&b)
		n := 0
		for ; n < 1000; n++ {
			if _, ok := b.claim(); ok {
				break
			}
			b.observe(true)
		}
		return n
	}
	for _, tc := range []struct {
		name      string
		got, want int
	}{
		{"missed probes before a device is dead", ticks(deadAfter), 14},
		{"backoff after attempt 1", backoff(1), 3},
		{"backoff after attempt 2", backoff(2), 5},
		{"backoff after attempt 3", backoff(3), 10},
		{"backoff after attempt 4", backoff(4), 20},
		{"backoff after attempt 5", backoff(5), 20},
		{"restarts granted before the budget refuses", spend(&restartBudget{}), 5},
		{"healthy ticks before a spent budget refills", refill(), 51},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// A host paused for desktop_reboot's 800 ms misses fewer than deadAfter's
// 14 probes, and so is never declared dead.
func TestSupervisorDeadAfterOutlastsReboot(t *testing.T) {
	c, _ := oneLaneCluster(t)
	l := NewLoop(c, LoopConfig{Heal: true})
	dev, _ := c.Device("desktop")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(300 * time.Millisecond)
		dev.Pause()
		time.Sleep(800 * time.Millisecond)
		dev.Resume()
		time.Sleep(600 * time.Millisecond)
		cancel()
	}()
	most := 0
	l.Run(ctx, func(Report) {
		if pr, ok := l.probes["desktop"]; ok {
			most = max(most, pr.missed)
		}
	})
	if most < 5 {
		t.Errorf("at most %d consecutive probes missed during an 800 ms pause; the pause never reached the probes", most)
	}
	if j := l.JournalStrings(); len(j) != 0 {
		t.Errorf("journal = %v after an 800 ms pause, want nothing (%d missed probes at most)", j, most)
	}
}

// A probe has one tick to answer and a tick never waits for one: with the
// only device crashed, the loop keeps its 100 ms tick while every probe
// times out, and journals the death on the tick deadAfter's count ends.
func TestLoopProbesNeverStretchTheTick(t *testing.T) {
	c, _ := oneLaneCluster(t)
	dev, _ := c.Device("desktop")
	dev.Crash()
	l := NewLoop(c, LoopConfig{Heal: true, Tune: &TunerConfig{}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var ticks []time.Time
	dead := 0
	l.Run(ctx, func(r Report) {
		ticks = append(ticks, r.At)
		if slices.Contains(r.Journal, "device_dead desktop") {
			dead = len(ticks)
			cancel()
		}
	})
	// Tick 1 sends the first probe; ticks 2 to 15 each count one miss.
	if dead != 15 {
		t.Fatalf("device_dead journaled on tick %d, want 15 (%d ticks run)", dead, len(ticks))
	}
	// A tick that waited out its probes would last at least two intervals.
	if mean := ticks[dead-1].Sub(ticks[0]) / time.Duration(dead-1); mean > 150*time.Millisecond {
		t.Errorf("mean tick = %v while the probes time out, want ~100 ms", mean)
	}
}
