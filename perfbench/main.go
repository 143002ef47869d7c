// Command perfbench is the repository's end-to-end benchmark. It drives
// the real agent path (internal/daemon, what syndogd runs) on one of
// three generated workloads and prints one JSON result line:
//
//	perfbench --workload live-pcap --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// adds a traced run that times the calls into each layer and reports
// the per-layer metrics. Every run checks the program's outputs first
// and exits non-zero, printing no result, when a check fails. See
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "records/s"},
	{"cpu_s_per_mrec", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload;
// a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"capture.read_ns_per_frame", "ns"},
	{"capture.wait_ns_per_record", "ns"},
	{"capture.frames", "count"},
	{"capture.skipped", "count"},
	{"capture.ring_dropped", "count"},
	{"decode.ns_per_record", "ns"},
	{"ingest.prescan_s", "s"},
	{"trace.load_s", "s"},
	{"ingest.ns_per_record", "ns"},
	{"core.ns_per_period", "ns"},
	{"sourcetrack.ns_per_record", "ns"},
	{"sourcetrack.close_us_per_period", "us"},
	{"sourcetrack.evictions_per_ksyn", "count"},
	{"summary.close_us_per_period", "us"},
	{"summary.censored_frac", "ratio"},
	{"uplink.post_ms_p50", "ms"},
	{"uplink.bytes_per_summary", "bytes"},
	{"uplink.summaries_per_post", "count"},
	{"uplink.dropped", "count"},
	{"uplink.failed", "count"},
	{"fusion.ingest_us_per_post", "us"},
	{"fusion.gaps", "count"},
	{"fusion.stale", "count"},
	{"daemon.period_close_us_p50", "us"},
	{"daemon.checkpoint_ms_p50", "ms"},
	{"daemon.state_bytes", "bytes"},
	{"http.metrics_ms_p50", "ms"},
	{"http.status_ms_p50", "ms"},
	{"http.sources_ms_p50", "ms"},
	{"http.summaries_ms_p50", "ms"},
	{"http.metrics_bytes", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.scrape_late_ms_p90", "ms"},
	{"fused_latency_p50_ms", "ms"},
	{"fused_latency_p90_ms", "ms"},
	{"scrape_p50_ms", "ms"},
	{"scrape_p99_ms", "ms"},
	{"failed_frac", "ratio"},
}

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"live-pcap", "attrib-binary", "fleet-paced"}

// fixtureSpan is each workload's trace length. The streaming workloads
// get two hours; attrib-binary gets one, because the daemon loads a
// binary input whole and two hours of it peak near 740 MB of heap.
var fixtureSpan = map[string]time.Duration{
	"live-pcap":     2 * time.Hour,
	"attrib-binary": time.Hour,
	"fleet-paced":   2 * time.Hour,
}

// config is one benchmark invocation.
type config struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// span overrides each fixture trace's length (tests shrink it);
	// zero takes the workload's fixtureSpan.
	span time.Duration
	// speed overrides the fleet's pacing (tests run slower so the race
	// detector's overhead does not make monitors stale); zero takes
	// fleetSpeed.
	speed float64
}

// fleet returns where and how fast this invocation runs the fleet.
func (c config) fleet() fleetOpts {
	o := fleetOpts{stateDir: filepath.Join(c.root, ".bench_build", "run", "state"), speed: c.speed}
	if o.speed == 0 {
		o.speed = fleetSpeed
	}
	return o
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a finished run: the result plus the human-readable lines
// printed before it.
type outcome struct {
	res   result
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// set records a metric, with its unit from defs.
func (o *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			o.res.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: unlisted metric " + name)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&cfg.root, "root", ".", "checkout root; fixtures, state and spans go under ROOT/.bench_build")
	generate := fs.Bool("generate", false, "only generate the workload's fixture for the seed, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traced == 1
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}

	if *generate {
		if _, err := loadFixture(cfg.root, cfg.workload, cfg.seed, fixtureSpan[cfg.workload]); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
			return 1
		}
		return 0
	}
	if err := generateApart(ctx, cfg, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	out, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// generateApart generates a missing fixture in a child process, so the
// measuring process never holds a whole trace and its heap and page
// state do not depend on whether the fixture was cached.
func generateApart(ctx context.Context, cfg config, stderr io.Writer) error {
	span, ok := fixtureSpan[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload (have %s)", strings.Join(workloads, ", "))
	}
	if _, dir := fixtureDirs(cfg.root, cfg.workload, cfg.seed, span); cachedFixture(dir) != nil {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "-generate", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-root", cfg.root)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generating the fixture: %w", err)
	}
	return nil
}

// runWorkload generates (or reuses) the fixture, measures, checks and
// returns the result. Any failed check is an error: no result is
// reported for a run whose outputs are wrong.
func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloads, ", "))
	}
	span := cfg.span
	if span == 0 {
		span = fixtureSpan[cfg.workload]
	}
	fx, err := loadFixture(cfg.root, cfg.workload, cfg.seed, span)
	if err != nil {
		return nil, err
	}
	// In-process generation (tests) held whole traces; hand that memory
	// back before any measurement starts.
	debug.FreeOSMemory()

	out := &outcome{res: result{Correct: true, Metrics: make(map[string]metric)}}
	meta, err := json.Marshal(metadata(cfg))
	if err != nil {
		return nil, err
	}
	out.note("# meta %s", meta)
	for _, f := range fx.Files {
		out.note("# fixture %s: %d records, %d bytes, span %v", f.File, f.Records, f.Bytes, f.Span)
	}
	if cfg.trace {
		err = measurePerLayer(ctx, cfg, fx, out)
	} else {
		err = measureEndToEnd(ctx, cfg, fx, out)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := out.res.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	if out.res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return out, nil
}

// oneRep builds and runs the workload once, untraced.
func oneRep(ctx context.Context, cfg config, fx *fixture) (rep, error) {
	if fx.Workload == "fleet-paced" {
		return runFleet(ctx, fx, cfg.fleet())
	}
	return runSingle(ctx, fx)
}

// setupOnly times one set-up sample, torn down without running.
func setupOnly(cfg config, fx *fixture) (time.Duration, error) {
	if fx.Workload == "fleet-paced" {
		return setupFleetOnly(fx, cfg.fleet())
	}
	return setupSingle(fx, max(1, setupBatch[fx.Workload]))
}

// extraSetups is how many set-up samples each workload times on their
// own, besides the set-up every measured replay starts with: enough
// that the reported median rests on several samples whatever the
// replay count.
var extraSetups = map[string]int{"live-pcap": 30, "attrib-binary": 2, "fleet-paced": 2}

// setupBatch is how many consecutive set-ups one sample averages where
// a single set-up is too short to time alone. Building the live-pcap
// agent takes tens of microseconds: the median of single samples moved
// by 40% from run to run, the median of means of ten by 8%. Those
// workloads take their samples from setupOnly alone.
var setupBatch = map[string]int{"live-pcap": 10}

// measureEndToEnd repeats set-up and replay until the measuring time is
// used (at least once) and reports the medians.
func measureEndToEnd(ctx context.Context, cfg config, fx *fixture, out *outcome) error {
	start := time.Now()
	var setups []float64
	for i := 0; i < extraSetups[fx.Workload]; i++ {
		d, err := setupOnly(cfg, fx)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	var reps []rep
	for len(reps) == 0 || time.Since(start) < cfg.seconds {
		r, err := oneRep(ctx, cfg, fx)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		if setupBatch[fx.Workload] <= 1 {
			setups = append(setups, r.setup.Seconds())
		}
	}
	var rps, cpu, heap, fused, scrape []float64
	gaps, stale := 0, 0
	for _, r := range reps {
		gaps += r.gaps
		stale += r.stale
		rps = append(rps, float64(r.records)/r.replay.Seconds())
		cpu = append(cpu, r.cpu.Seconds()/float64(r.records)*1e6)
		heap = append(heap, r.peakMB)
		fused = append(fused, r.fusedLatMS...)
		for _, s := range r.scrapes {
			scrape = append(scrape, ms(s.lat))
		}
		out.res.Attempted += r.attempted
		out.res.Failed += r.failed
	}
	failedFrac := ratio(float64(out.res.Failed), float64(out.res.Attempted))
	out.set(endToEnd, "setup_s", median(setups))
	out.set(endToEnd, "records_per_s", median(rps))
	out.set(endToEnd, "cpu_s_per_mrec", median(cpu))
	// A replay's peak is bimodal on attrib-binary, by where collections
	// land while the trace loads; the higher mode repeats from run to
	// run, a median flips between the modes.
	out.set(endToEnd, "peak_heap_mb", quantile(heap, 1))
	out.note("# setup_s median of %d set-up samples (each the mean of %d set-ups); records_per_s and cpu_s_per_mrec medians of %d replays; peak_heap_mb their max",
		len(setups), max(1, setupBatch[fx.Workload]), len(reps))
	out.note("# per replay: records_per_s %.4g", rps)
	out.note("# per replay: cpu_s_per_mrec %.4g", cpu)
	out.note("# per replay: peak_heap_mb %.4g", heap)
	if fx.Workload == "fleet-paced" {
		out.note("# fused_latency_p50_ms %.4f fused_latency_p90_ms %.4f (%d fused periods)",
			quantile(fused, 0.5), quantile(fused, 0.9), len(fused))
		out.note("# scrape_p50_ms %.4f scrape_p99_ms %.4f (%d scrapes)",
			quantile(scrape, 0.5), quantile(scrape, 0.99), len(scrape))
		out.note("# fusion: %d gap and %d stale observations", gaps, stale)
	} else {
		out.note("# fused_latency_*, scrape_*: no uplink, fusion or scraper on this workload")
	}
	out.note("# failed_frac %.6g (%d of %d operations)", failedFrac, out.res.Failed, out.res.Attempted)
	return nil
}

// metadata describes the machine, toolchain, commit and settings.
func metadata(cfg config) map[string]any {
	m := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
	}
	if cfg.workload == "fleet-paced" {
		m["pacing_speed"] = cfg.fleet().speed
		m["scrape_rate_per_s"] = scrapeRate
	} else {
		m["pacing_speed"] = 0
		m["scrape_rate_per_s"] = 0
	}
	return m
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a build outside a git work tree records none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
