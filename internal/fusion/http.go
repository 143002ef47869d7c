package fusion

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/summary"
)

// maxIngestBody bounds one uplink POST. A summary is a few hundred
// bytes with a full digest list; a default-sized batch is well under
// 64 KiB, so 1 MiB leaves an order of magnitude of headroom while
// keeping a misbehaving client from ballooning the coordinator.
const maxIngestBody = 1 << 20

// Handler builds the coordinator's HTTP plane:
//
//	POST /ingest   <- JSON array of summary.PeriodSummary (the uplink
//	                  batch format); responds {"accepted": n}
//	GET  /healthz  -> 200 "ok"
//	GET  /status   -> JSON Status (localization attached once alarmed)
//	GET  /fused    -> JSON array of fused periods (?from= first index)
//	GET  /monitors -> JSON per-monitor delivery state
//	GET  /metrics  -> Prometheus-style text exposition
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxIngestBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var batch []summary.PeriodSummary
		if err := json.Unmarshal(body, &batch); err != nil {
			http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		n := c.Ingest(batch)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"accepted\": %d}\n", n)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Status())
	})
	mux.HandleFunc("GET /fused", func(w http.ResponseWriter, r *http.Request) {
		from := 0
		if q := r.URL.Query().Get("from"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
				return
			}
			from = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Fused(from))
	})
	mux.HandleFunc("GET /monitors", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Monitors())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.writeMetrics(w)
	})
	return mux
}

// writeMetrics renders the coordinator exposition, mirroring the
// daemon's metric style (syndog_fusion_ prefix, TYPE headers, one
// sample per line).
func (c *Coordinator) writeMetrics(w io.Writer) {
	s := c.Status()
	var received, duplicates, gaps uint64
	for _, m := range c.Monitors() {
		received += m.Received
		duplicates += m.Duplicates
		gaps += m.Gaps
	}
	metrics.Write(w, "syndog_fusion_monitors", "gauge", metrics.Int(s.Monitors))
	metrics.Write(w, "syndog_fusion_monitors_stale", "gauge", metrics.Int(s.StaleCount))
	metrics.Write(w, "syndog_fusion_quorum", "gauge", metrics.Int(s.Quorum))
	metrics.Write(w, "syndog_fusion_periods_total", "counter", metrics.Int(s.FusedPeriods))
	metrics.Write(w, "syndog_fusion_statistic", "gauge", metrics.Float(s.Statistic))
	metrics.Write(w, "syndog_fusion_alarmed", "gauge", metrics.Bool(s.Alarmed))
	metrics.Write(w, "syndog_fusion_summaries_received_total", "counter", metrics.Int(received))
	metrics.Write(w, "syndog_fusion_summaries_duplicate_total", "counter", metrics.Int(duplicates))
	metrics.Write(w, "syndog_fusion_gap_periods_total", "counter", metrics.Int(gaps))
}
