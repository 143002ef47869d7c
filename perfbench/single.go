package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
)

// rep is one measured set-up and replay.
type rep struct {
	setup, replay, cpu time.Duration
	peakMB             float64
	records            int // fixture records replayed
	attempted, failed  int
	gostats            goStats // runtime counters over set-up and replay

	// Read off the agents' own HTTP planes after the replay.
	metricsText string
	stateBytes  int64 // mean state file size per agent

	// Fleet only.
	fusedLatMS  []float64
	scrapes     []scrapeSample
	gaps, stale int // fused observations synthesized as gaps, or excluded as stale
}

// buildSingle builds the one agent of live-pcap or attrib-binary the way
// syndogd does for `-in INPUT`: a spec through daemon.BuildAgentEnv.
func buildSingle(fx *fixture) (*daemon.Daemon, error) {
	spec := daemon.AgentSpec{Name: "agent"}
	switch fx.Workload {
	case "live-pcap":
		spec.Input = "live:pcap:" + fx.path(0)
		spec.Prefix = fx.Stub
	case "attrib-binary":
		spec.Input = fx.path(0)
		spec.TrackSources = true
	}
	d, _, err := daemon.BuildAgentEnv(spec, daemon.BuildEnv{ProcName: "perfbench", Log: io.Discard})
	return d, err
}

// setupSingle times n agent builds, each torn down untimed, and returns
// their mean.
func setupSingle(fx *fixture, n int) (time.Duration, error) {
	runtime.GC()
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		d, err := buildSingle(fx)
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
		if err := d.Close(); err != nil {
			return 0, err
		}
	}
	return total / time.Duration(n), nil
}

// get serves one GET through h in process and returns the body.
func get(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// runSingle builds the agent, replays its input at -speed 0 and checks
// the outputs.
func runSingle(ctx context.Context, fx *fixture) (rep, error) {
	var r rep
	g0 := readGoStats()
	hs := startHeapSampler()
	start := time.Now()
	d, err := buildSingle(fx)
	r.setup = time.Since(start)
	if err != nil {
		hs.finish()
		return r, err
	}
	defer d.Close()
	c0, t1 := cpuTime(), time.Now()
	err = d.Run(ctx, 0)
	r.replay, r.cpu = time.Since(t1), cpuTime()-c0
	r.peakMB = hs.finish()
	r.gostats = readGoStats().sub(g0)
	if err != nil {
		return r, fmt.Errorf("replay: %w", err)
	}
	r.records = fx.records()

	if err := checkAggregate(fx, d.Reports()); err != nil {
		return r, err
	}
	h := d.Handler()
	if fx.Workload == "attrib-binary" {
		body, err := get(h, "/sources?n=100000")
		if err != nil {
			return r, err
		}
		var p daemon.SourcesPayload
		if err := json.Unmarshal(body, &p); err != nil {
			return r, err
		}
		if err := checkSources(fx, p); err != nil {
			return r, err
		}
	}
	metrics, err := get(h, "/metrics")
	if err != nil {
		return r, err
	}
	r.metricsText = string(metrics)

	// Operations: one replay, plus every captured frame on the live
	// path, where a ring drop is a failed frame.
	r.attempted = 1
	if st := d.Status(); st.Capture != nil {
		r.attempted += int(st.Capture.Frames)
		r.failed += int(st.Capture.RingDropped)
	}
	return r, nil
}

// reportsOf decodes a /reports body.
func reportsOf(body []byte) ([]core.Report, error) {
	var reps []core.Report
	err := json.Unmarshal(body, &reps)
	return reps, err
}
