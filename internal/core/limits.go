package core

import (
	"fmt"

	"videopipe/internal/script"
)

// Default cluster-wide sandbox budgets. Deny-by-default: every deployed
// module runs under these unless its pipeline or module config overrides
// them. They are sized an order of magnitude above the heaviest shipped
// module's pipecost static worst case (asserted by tests), so well-behaved
// code never notices them while a runaway loop or allocation bomb is
// contained within one event.
const (
	// DefaultInstructionLimit bounds interpreter steps per event. Well
	// below script.DefaultMaxSteps so the configured budget, not the
	// interpreter's hard ceiling, is what fires.
	DefaultInstructionLimit = 2_000_000
	// DefaultInitInstructionLimit bounds init() and top-level load.
	DefaultInitInstructionLimit = 1_000_000
	// DefaultMemoryLimit bounds per-event script-value allocation (bytes).
	DefaultMemoryLimit = 8 << 20
	// DefaultOutputLimit bounds per-event host-emitted payload (bytes).
	DefaultOutputLimit = 256 << 10
)

// LimitsConfig declares a sandbox resource budget in a pipeline config —
// the `limits { instructions=…; memory=…; output=… }` block,
// at pipeline scope (default for all modules) or per module (override).
// Zero fields inherit from the enclosing scope, ending at the cluster
// defaults above: there is no way to configure an unlimited module.
type LimitsConfig struct {
	// Instructions is the per-event interpreter step budget.
	Instructions int64
	// InitInstructions is the budget for init() and top-level load
	// (0 = same as Instructions).
	InitInstructions int64
	// Memory is the per-event allocation budget in bytes.
	Memory int64
	// Output is the per-event host-emit budget in bytes.
	Output int64
}

// DefaultLimits returns the cluster-wide default budget.
func DefaultLimits() LimitsConfig {
	return LimitsConfig{
		Instructions:     DefaultInstructionLimit,
		InitInstructions: DefaultInitInstructionLimit,
		Memory:           DefaultMemoryLimit,
		Output:           DefaultOutputLimit,
	}
}

// merged overlays l on top of def field-wise: set fields win, zero fields
// inherit.
func (l LimitsConfig) merged(def LimitsConfig) LimitsConfig {
	out := def
	if l.Instructions > 0 {
		out.Instructions = l.Instructions
	}
	if l.InitInstructions > 0 {
		out.InitInstructions = l.InitInstructions
	}
	if l.Memory > 0 {
		out.Memory = l.Memory
	}
	if l.Output > 0 {
		out.Output = l.Output
	}
	return out
}

// validate rejects negative budgets and instruction limits the interpreter
// could never reach (above its hard step ceiling).
func (l LimitsConfig) validate(scope string) error {
	if l.Instructions < 0 || l.InitInstructions < 0 || l.Memory < 0 || l.Output < 0 {
		return fmt.Errorf("core: %s: limits must be non-negative", scope)
	}
	if l.Instructions > script.DefaultMaxSteps || l.InitInstructions > script.DefaultMaxSteps {
		return fmt.Errorf("core: %s: instruction limit exceeds the interpreter ceiling %d", scope, int64(script.DefaultMaxSteps))
	}
	return nil
}

// ToScript converts a fully-resolved budget into the script layer's form.
func (l LimitsConfig) ToScript() script.Limits {
	return script.Limits{
		Instructions:     l.Instructions,
		InitInstructions: l.InitInstructions,
		Memory:           l.Memory,
		Output:           l.Output,
	}
}

// EffectiveLimits resolves the budget a module deploys under:
// module-level overrides pipeline-level overrides cluster defaults.
func (c *PipelineConfig) EffectiveLimits(module string) LimitsConfig {
	eff := c.Limits.merged(DefaultLimits())
	if m, ok := c.Module(module); ok {
		eff = m.Limits.merged(eff)
	}
	return eff
}
