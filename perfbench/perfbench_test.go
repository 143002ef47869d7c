package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySpan keeps the test fixtures small: every check still has a quiet
// prefix, a flood and enough flooded periods to alarm.
const tinySpan = 30 * time.Minute

// testSpeed paces the fleet at 50x, a twentieth of the benchmark's rate:
// under the race detector four monitors cannot keep up with 250x on two
// CPUs, fall more than the coordinator's staleness window (3 periods)
// behind each other and are excluded from fusion.
const testSpeed = fleetSpeed / 20

func tinyConfig(t *testing.T, root, workload string, traced bool) config {
	t.Helper()
	return config{root: root, workload: workload, seed: 1, trace: traced, span: tinySpan, speed: testSpeed}
}

// TestSmoke runs every workload end to end and traced on tiny fixtures:
// every check passes and every named metric prints with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates fixtures and replays them")
	}
	root := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(context.Background(), tinyConfig(t, root, w, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(out.res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
			}
			if !out.res.Correct || out.res.Attempted < 1 || out.res.Failed != 0 {
				t.Errorf("%s trace=%v: result %+v", w, traced, out.res)
			}
		}
	}
}

// TestFlippedReferenceFails shows the report check is live: a reference
// whose verdict for one period is flipped fails the run.
func TestFlippedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a fixture")
	}
	fx, err := loadFixture(t.TempDir(), "live-pcap", 1, tinySpan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSingle(context.Background(), fx); err != nil {
		t.Fatalf("unmodified reference: %v", err)
	}
	ref := fx.Files[0].Reference
	ref[len(ref)/3].Alarmed = !ref[len(ref)/3].Alarmed
	_, err = runSingle(context.Background(), fx)
	if err == nil || !strings.Contains(err.Error(), "differs from the reference") {
		t.Fatalf("flipped verdict: err = %v, want a reference mismatch", err)
	}
}

// TestUplinkClosedPortFails shows failed_frac is live: an uplink that
// posts to a closed port fails its summaries, and they count.
func TestUplinkClosedPortFails(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a fixture")
	}
	root := t.TempDir()
	fx, err := loadFixture(root, "fleet-paced", 1, tinySpan)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	r, err := runFleet(context.Background(), fx, fleetOpts{stateDir: root + "/state", uplinkURL: closed, speed: testSpeed})
	if err == nil {
		t.Fatal("a fleet whose uplink reaches no coordinator passed its fusion checks")
	}
	if r.failed == 0 || r.attempted == 0 {
		t.Fatalf("failed %d of %d operations, want failures counted", r.failed, r.attempted)
	}
	if frac := ratio(float64(r.failed), float64(r.attempted)); frac <= 0 {
		t.Fatalf("failed_frac = %v, want > 0", frac)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names the workloads and metrics
// this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestHistQuantile pins the histogram estimate on a labeled exposition.
func TestHistQuantile(t *testing.T) {
	text := `syndog_x_bucket{agent="a",le="0.001"} 0
syndog_x_bucket{agent="a",le="0.01"} 10
syndog_x_bucket{agent="a",le="+Inf"} 10
syndog_x_bucket{agent="b",le="0.001"} 10
syndog_x_bucket{agent="b",le="0.01"} 10
syndog_x_bucket{agent="b",le="+Inf"} 10
`
	if got := histQuantile(text, "syndog_x", 0.5); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := histQuantile(text, "syndog_x", 0.75); got < 0.0054 || got > 0.0056 {
		t.Errorf("p75 = %v, want 0.0055", got)
	}
	if got := histQuantile("", "syndog_x", 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}
