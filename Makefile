# Convenience targets for the VideoPipe reproduction.

GO ?= go

.PHONY: all build vet meters lint check test race cover alloc heal sandbox shapes fuzz experiments flood floodgate examples loc clean

all: build vet test

build:
	$(GO) build ./...

# Go-host static analysis. Cheap pre-steps first (gofmt, go vet, a grep
# that keeps environment reads out of internal/, one that keeps per-call
# contexts out of internal/device's data path, one that keeps Go maps as
# event bodies out of internal/device and internal/core, one that keeps
# boxed number reads off script objects in internal/services, internal/device
# and internal/core, one that keeps the stdlib JPEG encoder out of
# internal/'s non-test code, one that keeps the clock out of internal/script's
# non-test code), then the
# vpvet analyzer suite (framerelease, determinism, metername,
# lockdiscipline — see DESIGN.md "Static enforcement") over every package,
# then a staleness check of the generated meter registry, then the linked
# check: every main package built with inlining off, and every non-test
# function under internal/ and the root package that no binary links
# reported, bar the reasoned allow-list in internal/golint/linked_test.go.
# Exits non-zero on any finding; each step names itself on failure so a red
# `make check` points straight at the offending check.
vet:
	@unformatted=$$(gofmt -l . 2>/dev/null); if [ -n "$$unformatted" ]; then \
		echo "vet failed: gofmt (needs formatting):"; echo "$$unformatted"; exit 1; fi
	@$(GO) vet ./... || { echo "vet failed: go vet"; exit 1; }
	@if grep -rnE 'os\.(Getenv|LookupEnv)' --include='*.go' --exclude='*_test.go' internal; then \
		echo "vet failed: env-var knob under internal/ (pass it as a parameter or config field)"; exit 1; fi
	@if grep -rnE 'context\.With(Timeout|Deadline)' --include='*.go' --exclude='*_test.go' internal/device internal/wire; then \
		echo "vet failed: per-call context under internal/device or internal/wire (re-arm the worker's clock.Deadline; a wire call is bounded by its caller's context)"; exit 1; fi
	@if grep -rnE 'map\[string\]any' --include='*.go' --exclude='*_test.go' internal/device internal/core; then \
		echo "vet failed: map[string]any under internal/device or internal/core (build the event's *script.Object with script.NewObjectSize)"; exit 1; fi
	@if grep -rnE -A1 '\.(Get|Lookup)\(' --include='*.go' --exclude='*_test.go' internal/services internal/device internal/core | grep -E '\.\(float64\)'; then \
		echo "vet failed: boxed number read off a script object under internal/services, internal/device or internal/core (read it unboxed with Object.Num)"; exit 1; fi
	@if grep -rnE 'jpeg\.Encode\(' --include='*.go' --exclude='*_test.go' internal; then \
		echo "vet failed: image/jpeg encoder under internal/ (append the stream with frame.appendJPEG; jpeg.Encode is the test oracle only)"; exit 1; fi
	@if grep -rnE '"time"' --include='*.go' --exclude='*_test.go' internal/script; then \
		echo "vet failed: clock under internal/script (price the work in steps: the sandbox's one CPU budget has no clock)"; exit 1; fi
	@$(GO) run ./cmd/vpvet ./... || { echo "vet failed: vpvet (findings above; suppress a false positive with //vpvet:allow <check> <reason>)"; exit 1; }
	@$(GO) run ./cmd/vpvet -check-meters ./... || { echo "vet failed: meter registry stale (run make meters)"; exit 1; }
	@$(GO) test -run TestEveryFunctionLinked ./internal/golint || { echo "vet failed: a function no binary links (delete it, or give it a reason in linkAllowed)"; exit 1; }

# Regenerate the meter-name registry (internal/metrics/names.go) from
# every statically-visible Meter/Histogram/benchEntry.set name. Run after
# adding a metric; the metername analyzer and vpbench both check against
# the generated file.
meters:
	$(GO) run ./cmd/vpvet -write-meters ./...

# Static analysis: the Go-host suite above, then pipevet over every
# example pipeline config (module scripts + config cross-checks).
lint: vet
	@set -e; for cfg in examples/configs/*.cfg; do \
		$(GO) run ./cmd/videopipe -lint -config $$cfg || { echo "lint failed: pipevet on $$cfg"; exit 1; }; \
	done

# The pre-PR gate: everything that must be green before a change ships.
# `race` reruns the allocation-regression tests under the race detector
# (bounds logged, pool/scratch plumbing race-checked); `alloc` enforces
# the exact allocs/op bounds, which only hold without instrumentation.
check: build lint alloc race shapes

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation-regression gate: steady-state allocs/op on the frame codecs
# (raw round trip, clone, warm JPEG encode into a scratch, warm JPEG
# decode) and wire message paths must stay pinned (near zero) after the
# buffer pool / copy-elision work, and the interpreter's counted loop and
# script-to-script call must stay independent of the iteration count; an
# object literal of up to eight fields, a detector pose and its clone (its
# 17 keypoints one record run of two allocations), and the host calls that
# move them stay at their flat-object counts; an object field is 32 bytes and
# holds its number unboxed (TestUnboxedNumbers: -0, NaN, ±Inf and null keep
# type and value through every copy and the JSON codec), so building a pose,
# decoding the display message and reading a 15-pose window back in Go cost
# nothing per number; a warm activity Classify and a fitted rep counter's
# Observe (internal/vision) allocate nothing, and so do a warm DetectPose
# and a warm frame.Stripes call with a function bound once (the stripe
# workers start with the process), while a warm DetectObjects borrows both
# its planes and allocates only its result; a warm
# call_service("pose_detector", {frame_ref}) costs the pose payload and the
# result object (its result map recycled), a 15-pose window call at most
# 6; a read-only module's local call_module of the rep counter's message
# costs its top-level object, an over-deep one only the refusal, and a
# writer's one clone of the message; a read-only handler that sends that
# message as an object literal costs the copy alone, since a literal passed
# straight to call_module or call_service is its call site's scratch
# (TestLendLiteralAllocs: an event sending one allocates nothing, and the
# burn-stage event is down to Call's argument slice, 1); a warm remote
# call_service of a pose message, both ends, costs 55 through the client's
# and the server's warm decoders (TestClientCallAllocs; 218 cold); a host
# call's arguments, a warm wire
# scan's strings and a warm timed wait allocate nothing; so do a warm
# one-argument Context.Call, a frame_done() event, a store
# Put/Retain/Release cycle, an encoded store entry that is checked, read
# for its header and bytes and evicted undecoded, and a pooled wire
# receive, and a warm admitted Offer costs its message alone. A warm
# pass-through hop forwards the bytes its frame arrived with: no decode,
# no encode, and one malloc (the *Frame) fewer than the same hop through
# a module that calls services and so decodes on receipt, at <= 6 and <= 7
# mallocs (the test's own timeout context and the received message). A
# warm control-loop tick that takes no action allocates nothing, even once
# a pool's wait histogram is full; neither does a fresh meter's first Mark,
# and a full histogram's Snapshot costs one copy of its reservoir
# (internal/metrics). The BufferPool tests ride along: the
# pool's determinism (a hit after two GCs, retention cap, spare rule), the
# whole warm remote
# hop at <= 1 malloc (the decoded frame's header: netsim wakes a parked
# reader without making a channel) and <= 1 KiB (internal/netsim), and
# conservation —
# every chunk, body, stored encoding and frame back in the pool, every
# credit back and each failure abandoned once, after decode failures on
# receipt and at a first pixel read, a full store, an inject into a closed
# module, a local fan-out to a reader plus a remote forward, Cluster.Close
# with encoded-only events queued, and Cluster.Close with frames in
# flight. The timer pool's tests (internal/clock) run twice, once under
# each timer-channel semantics: a recycled timer must never carry a stale
# tick.
alloc:
	$(GO) test -run 'Allocs|ReleaseGuards|BufferPool|Unboxed' ./internal/frame ./internal/wire ./internal/script \
		./internal/services ./internal/netsim ./internal/device ./internal/core ./internal/vision \
		./internal/metrics
	$(GO) test -count=1 ./internal/clock
	GODEBUG=asynctimerchan=1 $(GO) test -count=1 ./internal/clock

cover:
	$(GO) test -cover ./...

# Seed of the fault schedules the chaos e2e suite replays. Override it to
# replay a different (still deterministic) fault sequence.
VP_CHAOS_SEED ?= 1

# Control-loop gate: the supervised chaos e2e suite (recovery left wholly
# to the loop's heal phase, exact journal assertions) plus the heal-phase,
# loop (tick, probes, report, degraded time), migration, failover and
# snapshot unit tests, the tune phase's rules with the
# credit-window narrowing they drive (its ring restart races frame_done),
# and the pool's recent-wait ring (its restart on a grow races Invoke) —
# all under the race detector with a pinned seed.
heal:
	VP_CHAOS_SEED=$(VP_CHAOS_SEED) $(GO) test -race -v -run 'TestChaos' .
	$(GO) test -race -run 'TestSupervisor|TestLoop|TestMonitor|TestMigrate|TestFailOver|TestSnapshot|TestTuner|TestResizeCredits|TestPoolRecentWait' ./internal/core ./internal/services ./internal/script

# Sandbox-governance gate: budget enforcement, kill/quarantine/restart and
# the module-sabotage chaos scenarios (hostile code contained by the
# sandbox, healed by the supervisor), all under the race detector.
sandbox:
	$(GO) test -race -run 'TestBudget|TestPreservationVersion|TestSnapshotCarriesVersion|TestModuleBreach|TestModuleOutput|TestModuleRestore|TestParseConfigLimits|TestEffectiveLimits|TestValidateRejectsBadLimits|TestPV014|TestBuiltinAppsWithin|TestPipelineRestartModule' ./internal/script ./internal/device ./internal/core
	VP_CHAOS_SEED=$(VP_CHAOS_SEED) $(GO) test -race -v -run 'TestChaosResilience/(runaway_module|hog_module)' .

# Pipetype gate: the shape-inference golden corpora (unit, script-level
# and config-level) plus the edge-contract checks and the runtime
# soundness test (inferred ⊇ observed over every shipped module), all
# under the race detector.
shapes:
	$(GO) test -race -run 'TestShape' ./internal/script ./internal/core .

# Short coverage-guided fuzz pass over the PipeScript and config parsers
# plus the sandbox budget enforcer, the static cost bound against the
# measured step count, the shape-inference pass, the stateless verdict
# against what two events on one context show the host, the read-only
# verdict against a change to what a module was handed or has sent, the
# payload JSON codec against encoding/json, the flat object table against
# a map and the frame codec's JPEG decoder and encoder against image/jpeg
# (seed corpora alone run in `make test`).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzBudget -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzCost -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzShapes -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzStateless -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzReadOnly -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzJSONCodec -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzObjectOps -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzParseConfig -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzJPEGDecode -fuzztime 30s ./internal/frame
	$(GO) test -fuzz FuzzJPEGEncode -fuzztime 30s ./internal/frame

# Regenerate every paper table/figure plus the ablations (takes ~3 min).
experiments:
	$(GO) run ./cmd/vpbench -exp all -dur 3s

# Saturation sweeps over every workload mix: open-loop knee finding with
# the canonical windows (EXPERIMENTS.md X4). Writes BENCH_flood.json.
flood:
	$(GO) run ./cmd/vpflood -sweep -mix all -dur 3s -out BENCH_flood.json

# Throughput-regression gate: a fresh tuned-vs-untuned sweep pair diffed
# against the checked-in baseline. Fails when any mix's knee (tuned or
# untuned) drops below the baseline by more than the tolerance, a
# knee-rung tail blows its absolute budget, or a tuned knee falls below
# its untuned knee by more than the margin. The margin floor is -5%, not
# 0: the scripted control mix's tuned gain (~+2%) sits inside run-to-run
# noise, and the gate's job there is "the tuner must not hurt", not "the
# tuner must win the coin flip". Override FLOOD_TOLERANCE /
# FLOOD_TUNEMARGIN for noisier machines (CI uses 0.5 / -0.25).
FLOOD_TOLERANCE ?= 0.15
FLOOD_TUNEMARGIN ?= -0.05
floodgate:
	$(GO) run ./cmd/vpflood -tunediff -mix all -dur 6s -out BENCH_flood.json \
		-gate BENCH_baseline.json -tolerance $(FLOOD_TOLERANCE) \
		-tunemargin $(FLOOD_TUNEMARGIN) -p999budget 600ms

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fitness -dur 4s
	$(GO) run ./examples/gesture -dur 4s
	$(GO) run ./examples/falldetect -dur 6s
	$(GO) run ./examples/securitycam -dur 6s

# ROADMAP aim 2's scorecard: lines of non-test Go outside bench/ and
# testdata/.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l

clean:
	rm -f fitness_display.png test_output.txt bench_output.txt vpbench_results.txt BENCH_results.json BENCH_flood.json
