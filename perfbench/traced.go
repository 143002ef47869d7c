package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
	"repro/internal/trace"
)

// trackConfig is the keyed tracker syndogd builds for -track-sources:
// /24 keys, K=1024, one shard per GOMAXPROCS.
func trackConfig() sourcetrack.Config {
	return sourcetrack.Config{Shards: runtime.GOMAXPROCS(0), Agent: core.Config{T0: t0}}
}

// tracedRun accumulates what the traced daemon-path runs measured
// outside the span store.
type tracedRun struct {
	walls   []float64 // replay wall seconds, one per run
	runs    int
	records int // records the wrapped sources returned
	capture capture.Stats
	// frameNS and frameReads total the time and calls in ReadFrame.
	frameNS, frameReads int64

	transport       *tracedTransport
	upDropped       uint64
	upFailed        uint64
	gaps, staleObsv uint64
}

// openCapture opens a live:pcap input the way the daemon does, with the
// frame reader wrapped.
func openCapture(fx *fixture, ft **frameTimer) (*capture.Source, error) {
	f, err := os.Open(fx.path(0))
	if err != nil {
		return nil, err
	}
	pr, err := capture.NewPcapReader(f, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	*ft = &frameTimer{FrameReader: pr}
	cs, err := capture.NewSource(*ft, capture.Config{StubPrefix: netip.MustParsePrefix(fx.Stub), Name: "live:pcap:" + fx.path(0)})
	if err != nil {
		pr.Close()
		return nil, err
	}
	return cs, nil
}

// tracedSingle runs live-pcap or attrib-binary once through
// daemon.NewLive/NewStream with the source and detector wrapped.
func tracedSingle(ctx context.Context, fx *fixture, store *spanStore, out *tracedRun) error {
	fl := store.flow()
	agent, err := core.NewAgent(core.Config{T0: t0})
	if err != nil {
		return err
	}
	det := &tracedDetector{Detector: ingest.WrapAgent(agent), fl: fl}
	opts := daemon.Options{Name: "perfbench", Log: io.Discard, Monitor: "agent"}
	var (
		d   *daemon.Daemon
		src *tracedSource
		cs  *capture.Source
		ft  *frameTimer
	)
	if fx.Workload == "live-pcap" {
		if cs, err = openCapture(fx, &ft); err != nil {
			return err
		}
		src = newTracedSource(cs, fl, "capture.NextBatch")
		d, err = daemon.NewLive(det, &tracedCapture{tracedSource: src, c: cs}, "live:pcap:"+fx.path(0), t0, opts)
		if err != nil {
			cs.Close()
			return err
		}
	} else {
		tr, err := trace.LoadValidated(fx.path(0), netip.Prefix{})
		if err != nil {
			return err
		}
		src = newTracedSource(ingest.NewTraceSource(tr), fl, "decode.NextBatch")
		if opts.Tracker, err = sourcetrack.New(trackConfig()); err != nil {
			return err
		}
		info := ingest.Info{Name: tr.Name, Span: tr.Span, Records: len(tr.Records)}
		if d, err = daemon.NewStream(det, src, info, t0, opts); err != nil {
			return err
		}
	}
	defer d.Close()
	start := time.Now()
	err = d.Run(ctx, 0)
	out.walls = append(out.walls, time.Since(start).Seconds())
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	out.runs++
	out.records += src.records
	if cs != nil {
		_ = cs.Close() // stop the reader before reading its totals
		st := cs.Stats()
		out.capture.Frames += st.Frames
		out.capture.Skipped += st.Skipped
		out.capture.RingDropped += st.RingDropped
		out.frameNS += ft.ns.Load()
		out.frameReads += ft.n.Load()
	}
	return compareReports("traced "+fx.Files[0].Name, d.Reports(), fx.Files[0].Reference)
}

// tracedFleet runs the fleet once through daemon.NewStream per monitor
// with the sources, detectors, uplink transport and coordinator handler
// wrapped, paced and scraped like the untraced run. The daemons serve
// per-agent endpoints behind one mux, as the supervisor's /agents/...
// routes do. Checkpoints are off: a wrapped detector carries no
// snapshot state, so checkpoint cost comes from the untraced run.
func tracedFleet(ctx context.Context, fx *fixture, speed float64, store *spanStore, out *tracedRun) error {
	coordFlow, upFlow := store.flow(), store.flow()
	coord, err := startCoordinator(func(h http.Handler) http.Handler {
		return &tracedHandler{h: h, fl: coordFlow, name: "fusion.ingest"}
	})
	if err != nil {
		return err
	}
	defer coord.close()
	tt := &tracedTransport{rt: http.DefaultTransport.(*http.Transport).Clone(), fl: upFlow}
	sum := summary.Config{Censor: fleetCensor}
	up, err := summary.NewUplink(summary.UplinkConfig{URL: coord.url, Summary: sum,
		Client: &http.Client{Transport: tt, Timeout: 5 * time.Second}})
	if err != nil {
		return err
	}
	defer up.Close()

	prefix := netip.MustParsePrefix(fx.Stub)
	daemons := make(map[string]*daemon.Daemon, len(fx.Files))
	srcs := make([]*tracedSource, len(fx.Files))
	names := make([]string, len(fx.Files))
	for i, f := range fx.Files {
		names[i] = f.Name
		fl := store.flow()
		pf, err := os.Open(fx.path(i))
		if err != nil {
			return err
		}
		info, err := ingest.PcapInfo(pf)
		pf.Close()
		if err != nil {
			return err
		}
		info.Name = fx.path(i)
		raw, _, err := ingest.Open(fx.path(i), prefix)
		if err != nil {
			return err
		}
		srcs[i] = newTracedSource(raw, fl, "decode.NextBatch")
		agent, err := core.NewAgent(core.Config{T0: t0})
		if err != nil {
			raw.Close()
			return err
		}
		tracker, err := sourcetrack.New(trackConfig())
		if err != nil {
			raw.Close()
			return err
		}
		d, err := daemon.NewStream(&tracedDetector{Detector: ingest.WrapAgent(agent), fl: fl}, srcs[i], info, t0,
			daemon.Options{Name: "perfbench", Log: io.Discard, Tracker: tracker, Monitor: f.Name, Summary: sum, Uplink: up})
		if err != nil {
			raw.Close()
			return err
		}
		defer d.Close()
		daemons[f.Name] = d
	}

	mux := http.NewServeMux()
	handlers := make(map[string]http.Handler, len(daemons))
	for name, d := range daemons {
		handlers[name] = d.Handler()
	}
	mux.HandleFunc("/agents/{name}/{rest...}", func(w http.ResponseWriter, r *http.Request) {
		h := handlers[r.PathValue("name")]
		if h == nil {
			http.NotFound(w, r)
			return
		}
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/" + r.PathValue("rest")
		h.ServeHTTP(w, r2)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-srvDone
	}()

	start := time.Now()
	agentTargets := func(i int) (string, string) {
		a := names[(i/4)%len(names)]
		kind := [...]string{"metrics", "status", "sources", "summaries"}[i%4]
		return kind, "/agents/" + a + "/" + kind
	}
	sc := startScraper("http://"+ln.Addr().String(), agentTargets, start)
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, d *daemon.Daemon) {
			defer wg.Done()
			errs[i] = d.Run(ctx, speed)
		}(i, daemons[name])
	}
	wg.Wait()
	out.walls = append(out.walls, time.Since(start).Seconds())
	sc.stop()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("traced replay %s: %w", names[i], err)
		}
	}
	_ = up.Close() // flush the last batch before reading the counters
	out.runs++
	for i, name := range names {
		out.records += srcs[i].records
		if err := compareReports("traced "+name, daemons[name].Reports(), fx.Files[i].Reference); err != nil {
			return err
		}
	}
	out.transport = tt
	out.upDropped, out.upFailed = up.Dropped(), up.Failures()
	for _, m := range coord.coord.Monitors() {
		out.gaps += m.Gaps
	}
	for _, fp := range coord.coord.Fused(0) {
		out.staleObsv += uint64(fp.Stale)
	}
	return nil
}

// stackRun is the per-layer stack run: the same layers the daemon
// assembles, built from their public constructors and driven at -speed
// 0 by the benchmark's own loop, so the aggregator, the summary tap and
// the keyed tracker inside it can each be wrapped. No uplink runs here.
type stackRun struct {
	records, periods int
	syns, evicted    uint64
}

func runStack(fx *fixture, store *spanStore) (stackRun, error) {
	var out stackRun
	for i, f := range fx.Files {
		fl := store.flow()
		var (
			src     ingest.BatchSource
			span    time.Duration
			release func()
			cs      *capture.Source
		)
		switch fx.Workload {
		case "live-pcap":
			var ft *frameTimer
			c, err := openCapture(fx, &ft)
			if err != nil {
				return out, err
			}
			cs, src, release = c, c, func() { c.Close() }
		case "attrib-binary":
			id := fl.begin("trace.LoadValidated")
			tr, err := trace.LoadValidated(fx.path(i), netip.Prefix{})
			fl.end(id)
			if err != nil {
				return out, err
			}
			src, span, release = ingest.NewTraceSource(tr), tr.Span, func() {}
		default:
			pf, err := os.Open(fx.path(i))
			if err != nil {
				return out, err
			}
			id := fl.begin("ingest.PcapInfo")
			info, err := ingest.PcapInfo(pf)
			fl.end(id)
			pf.Close()
			if err != nil {
				return out, err
			}
			raw, _, err := ingest.Open(fx.path(i), netip.MustParsePrefix(fx.Stub))
			if err != nil {
				return out, err
			}
			src, span, release = ingest.AsBatch(raw), info.Span, func() { raw.Close() }
		}
		err := func() error {
			defer release()
			agent, err := core.NewAgent(core.Config{T0: t0})
			if err != nil {
				return err
			}
			det := &tracedDetector{Detector: ingest.WrapAgent(agent), fl: fl}
			var (
				tracker *sourcetrack.Tracker
				inner   summary.RecordTap
				sumCfg  summary.Config
			)
			if fx.Workload != "live-pcap" {
				if tracker, err = sourcetrack.New(trackConfig()); err != nil {
					return err
				}
				inner = &tracedTap{inner: tracker, fl: fl, record: "sourcetrack.RecordBatch", closeP: "sourcetrack.ClosePeriod"}
			}
			if fx.Workload == "fleet-paced" {
				sumCfg.Censor = fleetCensor
			}
			tap := summary.NewTap(&summary.Summarizer{Monitor: f.Name, Cfg: sumCfg, Tracker: tracker}, inner,
				func(summary.PeriodSummary) {})
			agg, err := ingest.NewAggregator(t0, span, det, tap.Sink)
			if err != nil {
				return err
			}
			agg.SetTap(&tracedTap{inner: tap, fl: fl, record: "summary.RecordBatch", closeP: "summary.ClosePeriod"})
			buf := make([]trace.Record, ingest.DefaultChunk)
			for {
				n, err := src.NextBatch(buf)
				if n > 0 {
					id := fl.begin("ingest.FeedBatch")
					ferr := agg.FeedBatch(buf[:n])
					fl.end(id)
					if ferr != nil {
						return ferr
					}
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
			var finalSpan time.Duration
			if cs != nil {
				finalSpan = cs.Span()
			}
			id := fl.begin("ingest.Finish")
			err = agg.Finish(finalSpan)
			fl.end(id)
			if err != nil {
				return err
			}
			out.records += agg.Records()
			out.periods += agg.Done()
			if tracker != nil {
				st := tracker.Stats()
				out.syns += st.SYNs
				out.evicted += st.Evicted
			}
			return compareReports("stack "+f.Name, det.Reports(), f.Reference)
		}()
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
