package coord

import (
	"encoding/json"
	"net/http"
)

// FleetStats is the coordinator's observability payload: the robustness
// counters plus a progress snapshot. It is what the coordinator's own
// /v1/stats endpoint serves.
type FleetStats struct {
	Counters CountersSnapshot `json:"counters"`
	Progress Progress         `json:"progress"`
}

// Stats snapshots the fleet view. Safe concurrently with Run.
func (c *Coordinator) Stats() FleetStats {
	return FleetStats{Counters: c.Counters(), Progress: c.Progress()}
}

// StatsHandler serves GET /v1/stats with the FleetStats JSON — the
// coordinator-side mirror of a worker's stats endpoint, mounted by
// ptgbench -coordinate when a stats address is requested.
func (c *Coordinator) StatsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Stats())
	})
	return mux
}
