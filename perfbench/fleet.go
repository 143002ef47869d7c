package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fusion"
	"repro/internal/summary"
)

// fleetFusion is the coordinator configuration of the distributed
// experiment: a stiffer rule than the library defaults, with a short
// rank history that matures inside the quiet prefix.
var fleetFusion = fusion.Config{Expect: fleetSize, History: 20, MinHistory: 8, Offset: 0.35, Threshold: 1.4}

// fleetCheckpoint is each agent's checkpoint interval (wall clock).
const fleetCheckpoint = time.Second

// fleetOpts is where and how fast a fleet runs.
type fleetOpts struct {
	stateDir string
	// uplinkURL, when set, replaces the coordinator address the uplink
	// posts to (tests point it at a closed port).
	uplinkURL string
	speed     float64 // trace seconds per wall second
}

// perPeriod is the wall time of one observation period.
func (o fleetOpts) perPeriod() time.Duration { return time.Duration(float64(t0) / o.speed) }

// fleetSpecs describes the four agents as a syndogd -config file would.
func fleetSpecs(fx *fixture, stateDir string) []daemon.AgentSpec {
	specs := make([]daemon.AgentSpec, len(fx.Files))
	for i, f := range fx.Files {
		specs[i] = daemon.AgentSpec{
			Name:         f.Name,
			Input:        fx.path(i),
			Prefix:       fx.Stub,
			State:        filepath.Join(stateDir, f.Name+".json"),
			Checkpoint:   daemon.Duration(fleetCheckpoint),
			TrackSources: true,
		}
	}
	return specs
}

// fusedClock is middleware around the coordinator's handler: after each
// /ingest it stamps every newly fused period with the current time.
type fusedClock struct {
	h     http.Handler
	coord *fusion.Coordinator

	mu sync.Mutex
	at []time.Time // at[i]: first instant period i was in the fused list
}

func (c *fusedClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.h.ServeHTTP(w, r)
	if r.URL.Path != "/ingest" {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for range c.coord.Fused(len(c.at)) {
		c.at = append(c.at, now)
	}
}

// latencies returns each fused period's delay past its scheduled close,
// start + (index+1)·perPeriod, in milliseconds.
func (c *fusedClock) latencies(start time.Time, perPeriod time.Duration) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.at))
	for i, at := range c.at {
		out[i] = ms(at.Sub(start.Add(time.Duration(i+1) * perPeriod)))
	}
	return out
}

// coordServer is an in-process fusion coordinator on a loopback
// listener, as syndogfusion serves it.
type coordServer struct {
	coord *fusion.Coordinator
	clock *fusedClock
	srv   *http.Server
	url   string
	done  chan struct{}
}

// startCoordinator starts the coordinator; wrap, when non-nil, wraps its
// handler (the traced run records spans there).
func startCoordinator(wrap func(http.Handler) http.Handler) (*coordServer, error) {
	coord, err := fusion.NewCoordinator(fleetFusion)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := coord.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	c := &coordServer{coord: coord, clock: &fusedClock{h: h, coord: coord},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	c.srv = &http.Server{Handler: c.clock}
	go func() {
		defer close(c.done)
		_ = c.srv.Serve(ln)
	}()
	return c, nil
}

func (c *coordServer) close() {
	_ = c.srv.Close()
	<-c.done
}

// waitUplink waits until the uplink has accounted for n summaries
// (sent, dropped or failed): its last partial batch leaves on the flush
// interval, after the replay is done, and the coordinator has fused what
// a batch carried before the POST returns.
func waitUplink(up *summary.Uplink, n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		done := int(up.Sent() + up.Dropped() + up.Failures())
		if done >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("uplink accounted for %d of %d summaries after %v", done, n, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bannerAddr is the supervisor's log writer: it picks the listen
// address out of the "serving on http://ADDR" banner.
type bannerAddr struct {
	once sync.Once
	addr chan string
}

func (b *bannerAddr) Write(p []byte) (int, error) {
	if _, rest, ok := strings.Cut(string(p), "serving on http://"); ok {
		addr, _, _ := strings.Cut(rest, " ")
		b.once.Do(func() { b.addr <- addr })
	}
	return len(p), nil
}

// fleetStack is a built fleet: supervisor, uplink and coordinator.
type fleetStack struct {
	sup      *daemon.Supervisor
	up       *summary.Uplink
	coord    *coordServer
	banner   *bannerAddr
	stateDir string
}

// setupFleet builds the fleet as syndogd -config plus syndogfusion
// would: coordinator up, uplink client, supervisor over four agents
// with fresh state.
func setupFleet(fx *fixture, o fleetOpts) (*fleetStack, error) {
	if err := os.RemoveAll(o.stateDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		return nil, err
	}
	coord, err := startCoordinator(nil)
	if err != nil {
		return nil, err
	}
	uplinkURL := o.uplinkURL
	if uplinkURL == "" {
		uplinkURL = coord.url
	}
	sum := summary.Config{Censor: fleetCensor}
	up, err := summary.NewUplink(summary.UplinkConfig{URL: uplinkURL, Summary: sum})
	if err != nil {
		coord.close()
		return nil, err
	}
	b := &bannerAddr{addr: make(chan string, 1)}
	sup, err := daemon.NewSupervisor(fleetSpecs(fx, o.stateDir), daemon.SupervisorOptions{
		ProcName: "perfbench", Log: b, Speed: o.speed, Summary: sum, Uplink: up})
	if err != nil {
		_ = up.Close()
		coord.close()
		return nil, err
	}
	return &fleetStack{sup: sup, up: up, coord: coord, banner: b, stateDir: o.stateDir}, nil
}

// teardownUnstarted releases a fleet that was built but never run: the
// supervisor only releases its agents from Run, so it runs under an
// already-cancelled context.
func (f *fleetStack) teardownUnstarted() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := f.sup.Run(ctx, "127.0.0.1:0")
	_ = f.up.Close()
	f.coord.close()
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return os.RemoveAll(f.stateDir)
}

// setupFleetOnly times one fleet build and tears it down.
func setupFleetOnly(fx *fixture, o fleetOpts) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	f, err := setupFleet(fx, o)
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	return elapsed, f.teardownUnstarted()
}

// agentStatuses reads the supervisor's aggregate /status in process.
func agentStatuses(h http.Handler) (map[string]daemon.Status, error) {
	body, err := get(h, "/status")
	if err != nil {
		return nil, err
	}
	var st struct {
		Agents map[string]daemon.Status `json:"agents"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return st.Agents, nil
}

// supRun is a supervisor's Run in flight; err is set before done closes.
type supRun struct {
	done chan struct{}
	err  error
}

// waitReplays polls the supervisor until every agent's replay is done.
func waitReplays(ctx context.Context, h http.Handler, runDone <-chan struct{}) error {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-runDone:
			return errors.New("supervisor stopped before the replays were done")
		case <-t.C:
		}
		sts, err := agentStatuses(h)
		if err != nil {
			return err
		}
		done := true
		for name, st := range sts {
			if st.ReplayError != "" {
				return fmt.Errorf("agent %s: %s", name, st.ReplayError)
			}
			done = done && st.ReplayDone
		}
		if done {
			return nil
		}
	}
}

// fleetTargets is the scraper's round robin: the aggregate /metrics and
// /status, then one agent's /sources and /summaries, cycling agents.
func fleetTargets(names []string) func(i int) (string, string) {
	return func(i int) (string, string) {
		a := names[(i/4)%len(names)]
		switch i % 4 {
		case 0:
			return "metrics", "/metrics"
		case 1:
			return "status", "/status"
		case 2:
			return "sources", "/agents/" + a + "/sources"
		default:
			return "summaries", "/agents/" + a + "/summaries"
		}
	}
}

// runFleet builds and runs the paced fleet with the scraper on, then
// checks the outputs.
func runFleet(ctx context.Context, fx *fixture, o fleetOpts) (rep, error) {
	var r rep
	g0 := readGoStats()
	hs := startHeapSampler()
	start := time.Now()
	f, err := setupFleet(fx, o)
	r.setup = time.Since(start)
	if err != nil {
		hs.finish()
		return r, err
	}

	runCtx, stop := context.WithCancel(ctx)
	run := &supRun{done: make(chan struct{})}
	c0, runStart := cpuTime(), time.Now()
	go func() {
		defer close(run.done)
		run.err = f.sup.Run(runCtx, "127.0.0.1:0")
	}()
	shutdown := func() error {
		stop()
		<-run.done
		_ = f.up.Close()
		f.coord.close()
		if run.err != nil && !errors.Is(run.err, context.Canceled) {
			return run.err
		}
		return nil
	}

	var addr string
	select {
	case addr = <-f.banner.addr:
	case <-run.done:
		hs.finish()
		_ = shutdown()
		return r, fmt.Errorf("supervisor: %v", run.err)
	}
	names := make([]string, len(fx.Files))
	for i, ff := range fx.Files {
		names[i] = ff.Name
	}
	sc := startScraper("http://"+addr, fleetTargets(names), runStart)
	h := f.sup.Handler()
	werr := waitReplays(ctx, h, run.done)
	r.replay, r.cpu = time.Since(runStart), cpuTime()-c0
	r.scrapes = sc.stop()
	r.peakMB = hs.finish()
	r.gostats = readGoStats().sub(g0)
	if werr != nil {
		_ = shutdown()
		return r, werr
	}
	r.records = fx.records()

	reports := make(map[string][]core.Report, len(names))
	emitted := 0
	for _, name := range names {
		body, err := get(h, "/agents/"+name+"/reports")
		if err == nil {
			reports[name], err = reportsOf(body)
		}
		if err != nil {
			_ = shutdown()
			return r, err
		}
		emitted += len(reports[name])
	}
	if err := waitUplink(f.up, emitted, 30*time.Second); err != nil {
		_ = shutdown()
		return r, err
	}
	metrics, err := get(h, "/metrics")
	if err != nil {
		_ = shutdown()
		return r, err
	}
	r.metricsText = string(metrics)
	if err := shutdown(); err != nil {
		return r, err
	}
	for _, name := range names {
		if st, err := os.Stat(filepath.Join(o.stateDir, name+".json")); err == nil {
			r.stateBytes += st.Size() / int64(len(names))
		}
	}
	r.fusedLatMS = f.coord.clock.latencies(runStart, o.perPeriod())

	// Operations: every summary emitted to the uplink and every scrape.
	r.attempted = emitted + len(r.scrapes)
	r.failed = int(f.up.Dropped() + f.up.Failures())
	for _, s := range r.scrapes {
		if !s.ok {
			r.failed++
		}
	}
	coord := f.coord.coord
	for _, m := range coord.Monitors() {
		r.gaps += int(m.Gaps)
	}
	for _, fp := range coord.Fused(0) {
		r.stale += fp.Stale
	}
	if err := checkFleet(fx, reports, coord.FirstAlarm(), coord.AlarmLocalization()); err != nil {
		return r, fmt.Errorf("%w (uplink sent %d, dropped %d, failed %d; %d periods fused, %d gaps, %d stale observations)",
			err, f.up.Sent(), f.up.Dropped(), f.up.Failures(), len(coord.Fused(0)), r.gaps, r.stale)
	}
	return r, nil
}

// scrapeSample is one read-plane request: its latency from the instant
// it was due, and how late the generator sent it.
type scrapeSample struct {
	kind  string
	lat   time.Duration
	late  time.Duration
	bytes int
	ok    bool
}

// scraper is an open-loop read-plane client: one connection, requests
// due every 1/scrapeRate seconds from its start, each sent as soon as
// the connection is free.
type scraper struct {
	stopC   chan struct{}
	done    chan struct{}
	samples []scrapeSample
}

func startScraper(base string, target func(int) (string, string), start time.Time) *scraper {
	s := &scraper{stopC: make(chan struct{}), done: make(chan struct{})}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   10 * time.Second,
	}
	interval := time.Duration(float64(time.Second) / scrapeRate)
	go func() {
		defer close(s.done)
		defer client.CloseIdleConnections()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(due))
			select {
			case <-s.stopC:
				return
			case <-timer.C:
			}
			kind, path := target(i)
			sent := time.Now()
			smp := scrapeSample{kind: kind, late: sent.Sub(due)}
			resp, err := client.Get(base + path)
			if err == nil {
				n, rerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				smp.bytes = int(n)
				smp.ok = rerr == nil && resp.StatusCode == http.StatusOK
			}
			smp.lat = time.Since(due)
			s.samples = append(s.samples, smp)
		}
	}()
	return s
}

// stop ends the scraper after its request in flight and returns the
// samples.
func (s *scraper) stop() []scrapeSample {
	close(s.stopC)
	<-s.done
	return s.samples
}
