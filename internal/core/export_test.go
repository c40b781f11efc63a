package core

// MeasuredPlacement is the placement rebalance re-plans toward when the
// module handle histograms read measured (ns per event), so the external
// placement table can pin it.
func MeasuredPlacement(cfg *PipelineConfig, c *Cluster, measured map[string]int64) (map[string]string, error) {
	plan, err := costAwarePlace(cfg, c, 0, func(name string) int64 { return measured[name] }, measuredHopCost)
	return plan.Placement, err
}
