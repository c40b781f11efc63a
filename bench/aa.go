package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// calibrate is the A/A check: n full invocations of this same binary per
// workload, then for every end-to-end metric the spread of its n values
// against the metric's bound. Two spreads are shown: max-min over the
// median, and the interquartile range over the median (what the
// acceptance driver computes). It fails when a range exceeds half the
// bound — a bound is never set below twice the spread it was observed at.
func calibrate(out io.Writer, selected []workload, n int, seed, seedStep int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "| workload | metric | median | range/median | IQR/median | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	noisy := 0
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := invoke(self, w.name, seed+int64(i)*seedStep, seconds)
			if err != nil {
				return fmt.Errorf("%s invocation %d: %w", w.name, i, err)
			}
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEndMetrics {
			med, rng, iqr := spread(values[d.name])
			verdict := "ok"
			if rng > d.bound/2 {
				verdict = "NOISY"
				noisy++
			}
			fmt.Fprintf(out, "| %s | %s | %.4f | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, d.name, med, rng*100, iqr*100, d.bound*100, verdict)
		}
	}
	if noisy > 0 {
		return fmt.Errorf("%d (workload, metric) ranges exceed half their bound", noisy)
	}
	return nil
}

// invoke runs one untraced invocation in a child process and parses the
// result line, the last line of its standard output.
func invoke(self, workload string, seed int64, seconds int) (report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return report{}, fmt.Errorf("parse result line: %w", err)
	}
	return rep, nil
}

// spread reports the median of vs, and (max-min) and (Q3-Q1) as shares of
// it. Quartiles are the exclusive-method ones Python's
// statistics.quantiles(vs, n=4) gives.
func spread(vs []float64) (median, rangeShare, iqrShare float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		if pos < 0 {
			return s[0]
		}
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	median = q(0.5)
	if median == 0 {
		return 0, 0, 0
	}
	return median, (s[len(s)-1] - s[0]) / median, (q(0.75) - q(0.25)) / median
}
