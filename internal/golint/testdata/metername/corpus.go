// Package mn is the metername golden corpus. The test driver runs the
// analyzer against a fixed registry:
//
//	chaos.errors
//	pipeline.*.frames_done
//	module.*.events
//	pool.*.size
package mn

import "videopipe/internal/metrics"

func record(reg *metrics.Registry, pipeline string, dynamic string) {
	reg.Meter("chaos.errors").Mark()

	reg.Meter("pipeline." + pipeline + ".frames_done").Mark()

	reg.Meter("module.cam.events").Mark()

	reg.Meter("chaos.error").Mark() // want metric name "chaos.error" is not in the generated registry .* did you mean "chaos.errors"\?

	reg.Meter("totally.unregistered.name").Mark() // want metric name "totally.unregistered.name" is not in the generated registry

	reg.Histogram("pipeline." + pipeline + ".e2e").Observe(0) // want metric name pattern "pipeline\.\*\.e2e" is not in the generated registry

	reg.Meter(dynamic).Mark() // want metric name is computed entirely at runtime

	//vpvet:allow metername corpus fixture for the runtime-name escape
	reg.Meter(dynamic).Mark()

	reg.Meter("pool." + pipeline + ".size").Mark()

	reg.Meter("pool.size").Mark() // want metric name "pool.size" is not in the generated registry

	reg.Histogram("pool." + pipeline + ".sizes").Observe(0) // want metric name pattern "pool\.\*\.sizes" is not in the generated registry .* did you mean "pool\.\*\.size"\?

	reg.Histogram(dynamic).Observe(0) // want metric name is computed entirely at runtime
}
