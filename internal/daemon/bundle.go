package daemon

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// bundleSourceRows caps the ranked keys included per agent in a debug
// bundle: enough to see who is attacking, without shipping the whole
// key population.
const bundleSourceRows = 100

// serveBundle streams a one-shot diagnostic bundle: a tar.gz holding
// the effective configuration, and per agent its status, period
// reports, top sources, metrics exposition and current snapshot state.
// Everything an operator attaches to a ticket in one request, captured
// from the live process without touching its replay.
func (s *Supervisor) serveBundle(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.writeBundle(&buf); err != nil {
		http.Error(w, "bundle: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="syndog-bundle.tar.gz"`)
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// writeBundle renders the bundle archive into w.
func (s *Supervisor) writeBundle(buf *bytes.Buffer) error {
	gz := gzip.NewWriter(buf)
	tw := tar.NewWriter(gz)
	now := time.Now()

	addFile := func(name string, data []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now,
		}); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	addJSON := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return addFile(name, append(data, '\n'))
	}

	if err := addJSON("bundle/config.json", specFile{Agents: s.Specs()}); err != nil {
		return err
	}
	for _, ma := range s.snapshot() {
		s.mu.Lock()
		name, d := ma.spec.Name, ma.d
		cusum := ma.spec.cusum()
		s.mu.Unlock()
		dir := "bundle/agents/" + name + "/"
		if err := addJSON(dir+"status.json", d.Status()); err != nil {
			return err
		}
		if err := addJSON(dir+"reports.json", d.Reports()); err != nil {
			return err
		}
		if err := addJSON(dir+"sources.json", d.Sources(bundleSourceRows, 0)); err != nil {
			return err
		}
		var metricsText bytes.Buffer
		writeMetrics(&metricsText, []agentStatus{{Status: d.Status()}})
		if err := addFile(dir+"metrics.txt", metricsText.Bytes()); err != nil {
			return err
		}
		if cusum {
			st, err := d.State()
			if err == nil {
				if err := addJSON(dir+"state.json", st); err != nil {
					return err
				}
			}
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}
