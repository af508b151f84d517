package exp

import "upmgo/internal/metrics"

// DescribeSweepGauges registers the sweep progress metric families —
// the upmgo_sweep_cells_* series behind cmd/sweep's -metrics-addr
// endpoint and cmd/sweepd's /metrics — alongside whatever per-cell
// NUMA families the samplers publish.
func DescribeSweepGauges(reg *metrics.Registry) {
	reg.Describe("upmgo_sweep_cells_inflight", "gauge", "Cells currently simulating on the worker pool.")
	reg.Describe("upmgo_sweep_cells_done", "counter", "Finished cells by outcome (simulated vs recalled from the memo cache).")
	reg.Describe("upmgo_sweep_cells_replayed", "gauge", "Cells that replayed a recorded L2-miss stream instead of simulating the caches.")
	reg.Describe("upmgo_sweep_miss_streams", "gauge", "L2-miss stream recordings made (each batch records its own).")
	reg.Describe("upmgo_sweep_cells_disk_hits", "gauge", "Cells recalled from the on-disk result store instead of simulating.")
	reg.Describe("upmgo_sweep_cells_stored", "gauge", "Cells persisted to the on-disk result store.")
	metrics.DescribeCellSeconds(reg)
}

// PublishSweepEvent keeps the sweep gauges current from a Runner's
// OnEvent stream. The runner serializes OnEvent calls, and the registry
// locks internally, so the scraping goroutine always sees a consistent
// snapshot. The replay counters accumulate from the cells' reports; the
// store counters are read from cache.
func PublishSweepEvent(reg *metrics.Registry, cache *Cache, ev Event) {
	if !ev.Done {
		reg.Add("upmgo_sweep_cells_inflight", nil, 1)
		return
	}
	reg.Add("upmgo_sweep_cells_inflight", nil, -1)
	rep := ev.Report
	result := "simulated"
	if rep.Source != SourceSimulated {
		result = "recalled"
	}
	reg.Add("upmgo_sweep_cells_done", metrics.Labels{"result": result}, 1)
	metrics.ObserveCellSeconds(reg, rep.Bench, rep.Label, rep.HostSeconds)
	var replayed, recorded float64
	if rep.Replayed {
		replayed = 1
	}
	if rep.Recording != nil {
		recorded = 1
	}
	reg.Add("upmgo_sweep_cells_replayed", nil, replayed)
	reg.Add("upmgo_sweep_miss_streams", nil, recorded)
	st := cache.Stats()
	reg.Set("upmgo_sweep_cells_disk_hits", nil, float64(st.DiskHits))
	reg.Set("upmgo_sweep_cells_stored", nil, float64(st.StorePuts))
}
