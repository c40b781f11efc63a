package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// fastRegistry keeps experiment tests quick: small costs, small corpus.
var (
	regOnce sync.Once
	regVal  *services.Registry
	regErr  error
)

func fastOptions(t *testing.T) Options {
	t.Helper()
	regOnce.Do(func() {
		opts := services.DefaultOptions()
		opts.PoseCost = 12 * time.Millisecond
		opts.ActivityCost = 2 * time.Millisecond
		opts.RepCost = time.Millisecond
		opts.DisplayCost = time.Millisecond
		opts.FallCost = time.Millisecond
		cfg := vision.DefaultDatasetConfig()
		cfg.SequencesPerActivity = 6
		cfg.FramesPerSequence = 45
		opts.DatasetConfig = cfg
		regVal, regErr = services.NewStandardRegistry(opts)
	})
	if regErr != nil {
		t.Fatalf("NewStandardRegistry: %v", regErr)
	}
	return Options{RunDuration: 1200 * time.Millisecond, Registry: regVal}
}

// TestDefaultChaosSchedulesPinned pins every default scenario's schedule at
// seed 1 — the two flaky_wifi ones are generated — so a change to
// chaos.Generate cannot move the legacy schedules silently.
func TestDefaultChaosSchedulesPinned(t *testing.T) {
	flakyWifi := "66.145821ms loss_burst desktop|phone for 482.153551ms\n" +
		"760.398084ms latency_spike desktop|phone for 280.279449ms\n" +
		"832.969758ms latency_spike desktop|phone for 349.16732ms"
	want := map[string]string{
		"flaky_wifi":            flakyWifi,
		"flaky_wifi_remote":     flakyWifi,
		"desktop_reboot":        "400ms pause_device desktop for 800ms",
		"desktop_reboot_remote": "400ms pause_device desktop for 800ms",
		"pose_pool_kill":        "400ms kill_service pose_detector for 1s",
	}
	scenarios := DefaultChaosScenarios()
	if len(scenarios) != len(want) {
		t.Errorf("%d default scenarios, want %d", len(scenarios), len(want))
	}
	for _, sc := range scenarios {
		if got := sc.schedule(1).Fingerprint(); got != want[sc.Name] {
			t.Errorf("%s schedule at seed 1:\n got %q\nwant %q", sc.Name, got, want[sc.Name])
		}
	}
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	if o.duration() != 3*time.Second {
		t.Errorf("default duration = %v", o.duration())
	}
	if o.scene() != "squat" {
		t.Errorf("default scene = %q", o.scene())
	}
	o.RunDuration = time.Second
	o.Scene = "wave"
	if o.duration() != time.Second || o.scene() != "wave" {
		t.Error("overrides ignored")
	}
}

func TestFig6ProducesAllStages(t *testing.T) {
	res, err := Fig6(fastOptions(t))
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	for _, stage := range []string{"load_frame", "pose", "rep_count", "total"} {
		if res.VideoPipe[stage] == 0 {
			t.Errorf("videopipe stage %q unmeasured", stage)
		}
		if res.Baseline[stage] == 0 {
			t.Errorf("baseline stage %q unmeasured", stage)
		}
	}
	// The headline shape: remote pose calls cost more than local ones.
	if res.VideoPipe["pose"] >= res.Baseline["pose"] {
		t.Errorf("pose: videopipe %v >= baseline %v", res.VideoPipe["pose"], res.Baseline["pose"])
	}
	table := res.Table()
	if !strings.Contains(table, "pose") || !strings.Contains(table, "VideoPipe") {
		t.Errorf("Table() = %q", table)
	}
}

func TestTable2SingleRow(t *testing.T) {
	rows, err := Table2(fastOptions(t), []float64{10}, []float64{10})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.SourceFPS != 10 || r.VideoPipe <= 0 || r.Baseline <= 0 {
		t.Errorf("row = %+v", r)
	}
	if !r.HasShared || r.Shared[0] <= 0 || r.Shared[1] <= 0 {
		t.Errorf("shared column missing: %+v", r)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "10") || !strings.Contains(out, "(") {
		t.Errorf("FormatTable2 = %q", out)
	}
}

func TestTable2NoSharedColumn(t *testing.T) {
	rows, err := Table2(fastOptions(t), []float64{5}, []float64{})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if rows[0].HasShared {
		t.Error("unexpected shared column")
	}
	if !strings.Contains(FormatTable2(rows), "-") {
		t.Error("missing '-' placeholder for absent shared column")
	}
}

func TestActivityAccuracyExperiment(t *testing.T) {
	res, err := ActivityAccuracy(1)
	if err != nil {
		t.Fatalf("ActivityAccuracy: %v", err)
	}
	if res.Accuracy <= 0.9 {
		t.Errorf("accuracy = %.3f, want > 0.9 (paper §4.1.2)", res.Accuracy)
	}
	if res.TrainN == 0 || res.TestN == 0 {
		t.Errorf("split sizes: train %d test %d", res.TrainN, res.TestN)
	}
}

func TestRepCountingExperiment(t *testing.T) {
	trials, mean, err := RepCountingAccuracy(12, 7)
	if err != nil {
		t.Fatalf("RepCountingAccuracy: %v", err)
	}
	if len(trials) != 12 {
		t.Fatalf("trials = %d", len(trials))
	}
	if mean < 0.7 {
		t.Errorf("mean accuracy = %.3f, want >= 0.7 (paper: 0.833)", mean)
	}
}

func TestScaleOutImprovesSaturatedService(t *testing.T) {
	if raceEnabled {
		t.Skip("performance-shape assertion; race builds are compute-bound")
	}
	// Use a single-worker pose service so one instance is clearly
	// saturated by two pipelines.
	opts := services.DefaultOptions()
	opts.PoseCost = 40 * time.Millisecond
	opts.PoseWorkers = 1
	opts.ActivityCost = 2 * time.Millisecond
	opts.RepCost = time.Millisecond
	opts.DisplayCost = time.Millisecond
	cfg := vision.DefaultDatasetConfig()
	cfg.SequencesPerActivity = 4
	cfg.FramesPerSequence = 45
	opts.DatasetConfig = cfg
	reg, err := services.NewStandardRegistry(opts)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}

	res, err := ScaleOut(Options{RunDuration: 2 * time.Second, Registry: reg})
	if err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	before := res.Before[0] + res.Before[1]
	after := res.After[0] + res.After[1]
	t.Logf("scale-out: before %.2f+%.2f=%.2f fps, after %.2f+%.2f=%.2f fps",
		res.Before[0], res.Before[1], before, res.After[0], res.After[1], after)
	if after <= before*1.2 {
		t.Errorf("scaling out did not help: %.2f -> %.2f total fps", before, after)
	}
}

func TestAblationQueueing(t *testing.T) {
	if raceEnabled {
		t.Skip("performance-shape assertion; race builds are compute-bound")
	}
	points, err := AblationQueueing(fastOptions(t), []int{1, 4})
	if err != nil {
		t.Fatalf("AblationQueueing: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// More credits must not reduce FPS.
	if points[1].FPS < points[0].FPS*0.85 {
		t.Errorf("credits=4 FPS %.2f much lower than credits=1 %.2f", points[1].FPS, points[0].FPS)
	}
	// What credits control by construction is the number of frames in
	// flight (Little's law: delivered rate × mean latency): one credit never
	// holds more than one, and four, offered a camera faster than one credit
	// carries (~25 fps here), hold more. Latency itself is not asserted: with
	// replicated stages and a 12 ms detector, four in flight need not queue.
	inFlight := func(p QueueingPoint) float64 { return p.FPS * p.E2EMean.Seconds() }
	one, four := inFlight(points[0]), inFlight(points[1])
	t.Logf("frames in flight: %.2f at credits=1, %.2f at credits=4", one, four)
	if one > 1.05 {
		t.Errorf("credits=1 held %.2f frames in flight, want <= 1", one)
	}
	if four < 1.25 {
		t.Errorf("credits=4 held %.2f frames in flight, want > 1.25 at 60 fps offered", four)
	}
}

func TestAblationCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("performance-shape assertion; race builds are compute-bound")
	}
	res, err := AblationCodec(fastOptions(t))
	if err != nil {
		t.Fatalf("AblationCodec: %v", err)
	}
	if res.JPEGFPS <= 0 || res.RawFPS <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Raw transfer is ~17x larger; latency must suffer.
	if res.RawE2E <= res.JPEGE2E {
		t.Errorf("raw e2e %v not worse than jpeg %v", res.RawE2E, res.JPEGE2E)
	}
}

func TestAblationBroker(t *testing.T) {
	if raceEnabled {
		t.Skip("performance-shape assertion; race builds are compute-bound")
	}
	res, err := AblationBroker(fastOptions(t))
	if err != nil {
		t.Fatalf("AblationBroker: %v", err)
	}
	if res.BrokerE2E <= res.DirectE2E {
		t.Errorf("broker hop e2e %v not worse than direct %v", res.BrokerE2E, res.DirectE2E)
	}
}

func TestAblationWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("performance-shape assertion; race builds are compute-bound")
	}
	// Dedicated fast registries are built inside; use small worker set.
	o := Options{RunDuration: 1200 * time.Millisecond}
	points, err := AblationWorkers(o, []int{1, 2})
	if err != nil {
		t.Fatalf("AblationWorkers: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].Aggregate < points[0].Aggregate {
		t.Errorf("2 workers aggregate %.2f below 1 worker %.2f", points[1].Aggregate, points[0].Aggregate)
	}
}

// The scripted mix's burn stages keep no state, so the device runtime
// replicates them: script_heavy and the scripted knee measure that path.
func TestScriptedStagesAreReplicable(t *testing.T) {
	for _, m := range scriptedConfig("s").Modules {
		if got := script.Analyze(m.Source, script.Options{}).Facts.Replication(); got != "replicable" {
			t.Errorf("%s: %s", m.Name, got)
		}
	}
}
