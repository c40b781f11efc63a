// Package flood is the open-loop load harness: it launches fleets of
// pipelines on an in-process cluster and injects frames on a
// pre-generated arrival schedule, so offered load never slows down when
// the system backs up — overload shows up honestly as latency and
// source-side drops instead of silently throttling the generator
// (coordination omission). On top of the single-run driver sits a
// knee-finding sweep (step offered rate until p99 blows a budget or
// achieved throughput falls behind offered) and a regression gate that
// diffs sweep results against a checked-in baseline.
package flood

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Process names an inter-arrival process.
type Process string

const (
	// Poisson draws exponential inter-arrival gaps — bursty, memoryless
	// traffic, the standard open-loop arrival model.
	Poisson Process = "poisson"
	// Uniform spaces events evenly at 1/rate with a random phase — a
	// pessimal-jitter-free baseline to compare Poisson against.
	Uniform Process = "uniform"
)

// ParseProcess resolves a CLI process name.
func ParseProcess(s string) (Process, error) {
	switch Process(s) {
	case Poisson:
		return Poisson, nil
	case Uniform:
		return Uniform, nil
	}
	return "", fmt.Errorf("flood: unknown arrival process %q (known: %s, %s)", s, Poisson, Uniform)
}

// Schedule is one pipeline's pre-generated arrival plan: event offsets
// from the run's start instant. It is fully determined by (process, rate,
// horizon, seed) — same inputs, identical offsets — so a run can
// be replayed exactly and the generator never consults a clock or shared
// randomness while driving.
type Schedule struct {
	// Process is the inter-arrival model the offsets were drawn from.
	Process Process
	// Rate is the offered rate in events per second.
	Rate float64
	// Horizon is the schedule's span; all offsets fall in [0, Horizon).
	Horizon time.Duration
	// Seed is the generator seed the offsets were drawn with.
	Seed int64
	// Offsets are the event instants, ascending, relative to run start.
	Offsets []time.Duration
}

// Generate draws an arrival schedule. The schedule is a pure function of
// the arguments: an owned rand.Rand is seeded from seed, and nothing else
// feeds the draw.
//
//vpvet:deterministic
func Generate(process Process, rate float64, horizon time.Duration, seed int64) (Schedule, error) {
	if rate <= 0 {
		return Schedule{}, fmt.Errorf("flood: rate must be positive, got %v", rate)
	}
	if horizon <= 0 {
		return Schedule{}, fmt.Errorf("flood: horizon must be positive, got %v", horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Process: process, Rate: rate, Horizon: horizon, Seed: seed}
	switch process {
	case Poisson:
		// Exponential gaps with mean 1/rate.
		for t := time.Duration(float64(time.Second) * rng.ExpFloat64() / rate); t < horizon; {
			s.Offsets = append(s.Offsets, t)
			t += time.Duration(float64(time.Second) * rng.ExpFloat64() / rate)
		}
	case Uniform:
		// Even spacing with a random phase, so fleets of uniform
		// schedules with different seeds do not arrive in lockstep.
		interval := time.Duration(float64(time.Second) / rate)
		for t := time.Duration(rng.Float64() * float64(interval)); t < horizon; t += interval {
			s.Offsets = append(s.Offsets, t)
		}
	default:
		return Schedule{}, fmt.Errorf("flood: unknown arrival process %q", process)
	}
	sort.Slice(s.Offsets, func(i, j int) bool { return s.Offsets[i] < s.Offsets[j] })
	return s, nil
}

// PipelineSeed derives pipeline i's schedule seed from the run seed, so a
// fleet's schedules are mutually independent but jointly reproducible
// from one number.
func PipelineSeed(runSeed int64, i int) int64 {
	// Distinct odd stride keeps derived seeds collision-free for any
	// realistic fleet size.
	return runSeed + int64(i)*1_000_003
}
