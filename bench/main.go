// Command bench (vpmark) is the repository's benchmark: four seeded
// open-loop workloads driven through core.Pipeline.Offer, four gated
// end-to-end metrics from an untraced run, and a separate traced run that
// reports per-layer metrics by timing calls into each package's public
// API from outside. BENCHMARK.json at the repo root declares the names,
// units and bounds; README.md here explains each of them.
//
//	go run ./bench                                  # all workloads, end-to-end
//	go run ./bench -workload pose_surge -seed 7     # one workload
//	go run ./bench -trace 1                         # per-layer metrics + bench/out/trace-*.json
//	go run ./bench -aa 6                            # same-commit calibration table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"time"
)

// traceDir is where the traced run writes its span files, relative to the
// directory the benchmark is run from (the repo root).
const traceDir = "bench/out"

// metricNameRE is the shape every reported metric name must have.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed         = flag.Int64("seed", 1, "seed of the arrival schedules and the tuner")
		seconds      = flag.Int("seconds", 20, "measured window in seconds")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		aa           = flag.Int("aa", 0, "run N same-commit invocations per workload and print the spread of every end-to-end metric against its bound")
		seedStep     = flag.Int64("seedstep", 0, "with -aa: invocation i uses seed + i*seedstep (0 = same seed every time)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// The load is sized for two cores; pin the runtime so a bigger host
	// does not change the contention the workloads are built around.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)

	selected := workloads()
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		selected = []workload{w}
	}

	if *aa > 0 {
		if err := calibrate(os.Stdout, selected, *aa, *seed, *seedStep, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	window := time.Duration(*seconds) * time.Second
	exit := 0
	for _, w := range selected {
		rep, err := measure(os.Stdout, w, *seed, window, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !rep.Correct {
			exit = 1
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	os.Exit(exit)
}

// report is the one-line JSON result the driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload — untraced for the end-to-end metrics, or the
// traced protocol for the per-layer ones — prints the metric table to out
// and returns the result line.
func measure(out io.Writer, w workload, seed int64, window time.Duration, traced bool) (report, error) {
	if !traced {
		o, err := runWorkload(w, runConfig{seed: seed, preroll: prerollDur, window: window, builds: setupRepeats})
		if err != nil {
			return report{}, err
		}
		return render(out, o, endToEndMetrics, o.endToEnd), nil
	}

	// Tracing overhead is the p50 difference between an untraced and a
	// traced window, so the traced protocol spends half its seconds on each.
	half := runConfig{seed: seed, preroll: prerollDur, window: window / 2, builds: 1}
	ref, err := runWorkload(w, half)
	if err != nil {
		return report{}, err
	}
	tr := newTracer(w.name)
	half.tr = tr
	o, err := runWorkload(w, half)
	if err != nil {
		return report{}, err
	}
	probed, err := runProbes(w, tr, probeIters)
	if err != nil {
		return report{}, err
	}
	for name, v := range probed {
		o.layer[name] = v
	}
	o.layer["core.offer_us"] = float64(quantile(tr.durations("core.offer"), 0.5)) / float64(time.Microsecond)
	o.layer["budget.unexplained_ms"] = o.layer["core.e2e_p50_ms"] - explainedMS(w, o.layer)
	o.layer["trace.overhead_frac"] = 0
	if p50 := ref.layer["core.e2e_p50_ms"]; p50 > 0 {
		o.layer["trace.overhead_frac"] = (o.layer["core.e2e_p50_ms"] - p50) / p50
	}
	o.problems = append(o.problems, ref.problems...)
	path, err := tr.write(traceDir)
	if err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	rep := render(out, o, perLayerMetrics, o.layer)
	fmt.Fprintf(out, "  spans: %d in %s; self time by layer:", len(tr.spans), path)
	self := tr.selfTimes()
	for _, layer := range []string{"core", "script", "wire", "frame", "netsim", "services", "device", "harness"} {
		fmt.Fprintf(out, " %s=%.1fms", layer, ms(self[layer]))
	}
	fmt.Fprintln(out)
	return rep, nil
}

// render prints one metric per line — value, unit, bound, sample count —
// and builds the result line. A metric the run did not produce, or a name
// of the wrong shape, is an output-check failure.
func render(out io.Writer, o *outcome, defs []metricDef, values map[string]float64) report {
	rep := report{Attempted: max(o.totals.offered, 1), Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "workload %s seed %d window %.2fs: offered %d admitted %d refused %d completed %d abandoned %d, %d e2e samples in window\n",
		o.workload, o.seed, o.window.Seconds(), o.totals.offered, o.totals.admitted, o.totals.refused,
		o.totals.completed, o.totals.abandoned, len(o.samples))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || !metricNameRE.MatchString(d.name) {
			o.problems = append(o.problems, fmt.Sprintf("metric %q missing or misnamed", d.name))
			continue
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.bound*100)
		}
		fmt.Fprintf(out, "  %-28s %14.4f %-9s bound %-4s n=%d\n", d.name, v, d.unit, bound, len(o.samples))
	}
	for _, p := range o.problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	rep.Failed = o.failed()
	rep.Correct = len(o.problems) == 0
	return rep
}
