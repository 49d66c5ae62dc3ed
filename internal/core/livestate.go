package core

import "fmt"

// This file is the live plane's half of the recovery plane: exporting and
// importing the one piece of cross-round training state a LiveCluster
// accumulates besides its round index — per-node error-feedback residuals.
// A checkpoint that captures only model parameters silently breaks EF-SGD
// (the residual maps carry deferred gradient mass). The stochastic
// compressors leave nothing to export: every encode's draws are derived from
// (round, node, pipeline position) in execComp, so restoring the round index
// (RestoreEpoch) restores them. internal/ckpt persists what these methods
// export; internal/trainer calls them around Save/Resume.

// ExportState snapshots the cluster's error-feedback residuals: residuals[v]
// is node v's export (nil when the cluster runs without error feedback).
// The maps are detached deep copies — safe to serialize while the next round
// runs.
func (lc *LiveCluster) ExportState() []map[string][]float32 {
	if lc.ef == nil {
		return nil
	}
	residuals := make([]map[string][]float32, lc.n)
	for v, ef := range lc.ef {
		if ef != nil {
			residuals[v] = ef.Residuals()
		}
	}
	return residuals
}

// ImportState restores residuals previously captured by ExportState into a
// freshly built cluster of the same shape (same n, algo, error-feedback
// setting). A nil slice leaves residuals untouched (exact-sync clusters).
func (lc *LiveCluster) ImportState(residuals []map[string][]float32) error {
	if residuals == nil {
		return nil
	}
	if lc.ef == nil {
		return fmt.Errorf("core: ImportState got residuals but cluster has no error feedback")
	}
	if len(residuals) != lc.n {
		return fmt.Errorf("core: ImportState got %d residual sets for %d nodes", len(residuals), lc.n)
	}
	for v, res := range residuals {
		if lc.ef[v] != nil {
			lc.ef[v].SetResiduals(res)
		}
	}
	return nil
}
