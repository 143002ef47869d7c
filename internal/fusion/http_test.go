package fusion

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/summary"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestHandlerEndpoints(t *testing.T) {
	c, err := NewCoordinator(Config{Expect: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(batch []summary.PeriodSummary) string {
		body, _ := json.Marshal(batch)
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		var out struct {
			Accepted int `json:"accepted"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d", out.Accepted)
	}
	if got := post([]summary.PeriodSummary{mk("a", 0, 0.1), mk("b", 0, 0.1)}); got != "2" {
		t.Fatalf("accepted = %s, want 2", got)
	}
	if got := post([]summary.PeriodSummary{mk("a", 0, 0.1)}); got != "0" {
		t.Fatalf("duplicate accepted = %s, want 0", got)
	}

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	var st Status
	if err := json.Unmarshal([]byte(get("/status")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Monitors != 2 || st.FusedPeriods != 1 {
		t.Fatalf("status = %+v", st)
	}
	var fused []FusedPeriod
	if err := json.Unmarshal([]byte(get("/fused")), &fused); err != nil {
		t.Fatal(err)
	}
	if len(fused) != 1 || fused[0].Participants != 2 {
		t.Fatalf("fused = %+v", fused)
	}
	var mons []MonitorStatus
	if err := json.Unmarshal([]byte(get("/monitors")), &mons); err != nil {
		t.Fatal(err)
	}
	if len(mons) != 2 {
		t.Fatalf("monitors = %+v", mons)
	}
	// The exposition is pinned byte for byte: names, TYPE lines, order
	// and values of the two-monitor scenario. Regenerate with -update.
	metrics := get("/metrics")
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(metrics), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if metrics != string(want) {
		t.Errorf("metrics exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", metrics, want)
	}
	if get("/healthz") != "ok\n" {
		t.Fatal("healthz not ok")
	}
}

func TestIngestRejectsBadBody(t *testing.T) {
	c, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
}

// TestUplinkSoakKillRestart drives four real summary.Uplink clients
// against a coordinator over HTTP, kills one mid-stream and restarts
// it, and checks that (a) the dispersed flood is still detected via
// quorum, and (b) no goroutines leak once every uplink is closed —
// the soak-style fault-tolerance test the fusion layer is specified
// against. Run under -race in CI.
func TestUplinkSoakKillRestart(t *testing.T) {
	before := runtime.NumGoroutine()

	c, err := NewCoordinator(Config{Expect: 4, StaleAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())

	mkUplink := func() *summary.Uplink {
		u, err := summary.NewUplink(summary.UplinkConfig{
			URL: srv.URL, BatchSize: 2, FlushInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	ups := make([]*summary.Uplink, 4)
	for i := range ups {
		ups[i] = mkUplink()
	}

	rng := rand.New(rand.NewSource(11))
	send := func(i, p int, flood bool) {
		scale := 0.05 * float64(i+1)
		x := scale * rng.Float64()
		if flood {
			x = scale + 0.01
		}
		ups[i].Send(mk(fmt.Sprintf("m%d", i), p, x))
	}

	// Quiet prefix from all four monitors.
	for p := 0; p < 40; p++ {
		for i := range ups {
			send(i, p, false)
		}
	}
	// m2's uplink dies at the flood onset...
	ups[2].Close()
	for p := 40; p < 52; p++ {
		for i := range ups {
			if i != 2 {
				send(i, p, true)
			}
		}
	}
	// ...and is restarted (a fresh process resuming its stream).
	ups[2] = mkUplink()
	for p := 52; p < 70; p++ {
		for i := range ups {
			send(i, p, true)
		}
	}
	for _, u := range ups {
		u.Close()
	}

	// Everything is flushed (Close drains), so the coordinator has all
	// surviving summaries now.
	if !c.Alarmed() {
		t.Fatalf("dispersed flood with one restarted uplink never alarmed: %+v\n%+v",
			c.Status(), c.Monitors())
	}
	al := c.FirstAlarm()
	if al == nil || al.Index < 40 {
		t.Fatalf("alarm outside the flood: %+v", al)
	}

	srv.Close()
	// Goroutine-leak check: closed uplinks and the shut-down server
	// must not leave senders behind. Poll briefly — the HTTP server's
	// connection goroutines take a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after close", before, runtime.NumGoroutine())
}
