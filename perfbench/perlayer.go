package main

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// traceReps is how many untraced and traced replays a per-layer run of
// a closed-loop workload alternates; the paced fleet runs one of each.
const traceReps = 3

// measurePerLayer runs the workload untraced (U), through the daemon
// path with every injectable boundary wrapped (T), and as a stack of
// wrapped layers driven by the benchmark's own loop (S), then derives
// the per-layer metrics:
//
//   - U: daemon histograms, HTTP read plane, fleet latencies, runtime
//     counters, failed_frac, and the untraced wall time;
//   - T: capture, decode, detector, uplink and fusion timings, and the
//     traced wall time;
//   - S: aggregator self time, keyed tracker, summary tap, pcap prescan
//     and binary load.
func measurePerLayer(ctx context.Context, cfg config, fx *fixture, out *outcome) error {
	n := traceReps
	if fx.Workload == "fleet-paced" {
		n = 1
	}
	store := newSpanStore()
	var (
		tr     tracedRun
		uWalls []float64
		u      rep
	)
	for i := 0; i < n; i++ {
		r, err := oneRep(ctx, cfg, fx)
		if err != nil {
			return err
		}
		u = r
		uWalls = append(uWalls, r.replay.Seconds())
		out.res.Attempted += r.attempted
		out.res.Failed += r.failed
		if fx.Workload == "fleet-paced" {
			err = tracedFleet(ctx, fx, cfg.fleet().speed, store, &tr)
		} else {
			err = tracedSingle(ctx, fx, store, &tr)
		}
		if err != nil {
			return err
		}
	}
	st, err := runStack(fx, store)
	if err != nil {
		return err
	}
	spans := store.summarize()
	dir := filepath.Join(cfg.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spanFile := filepath.Join(dir, fx.Workload+".tsv")
	if err := store.write(spanFile); err != nil {
		return err
	}
	out.note("# spans written to %s", spanFile)

	set := func(name string, v float64) { out.set(perLayer, name, v) }
	runs := float64(tr.runs)
	set("capture.read_ns_per_frame", ratio(float64(tr.frameNS), float64(tr.frameReads)))
	set("capture.wait_ns_per_record", ratio(float64(lt(spans, "capture.NextBatch").total), float64(tr.records)))
	set("capture.frames", ratio(float64(tr.capture.Frames), runs))
	set("capture.skipped", ratio(float64(tr.capture.Skipped), runs))
	set("capture.ring_dropped", ratio(float64(tr.capture.RingDropped), runs))
	set("decode.ns_per_record", ratio(float64(lt(spans, "decode.NextBatch").total), float64(tr.records)))
	set("ingest.prescan_s", lt(spans, "ingest.PcapInfo").total.Seconds())
	set("trace.load_s", lt(spans, "trace.LoadValidated").total.Seconds())
	ingestSelf := lt(spans, "ingest.FeedBatch").self + lt(spans, "ingest.Finish").self
	set("ingest.ns_per_record", ratio(float64(ingestSelf), float64(st.records)))
	period := lt(spans, "core.Period")
	set("core.ns_per_period", ratio(float64(period.total), float64(period.count())))
	set("sourcetrack.ns_per_record", ratio(float64(lt(spans, "sourcetrack.RecordBatch").total), float64(st.records)))
	set("sourcetrack.close_us_per_period", ratio(us(lt(spans, "sourcetrack.ClosePeriod").total), float64(st.periods)))
	set("sourcetrack.evictions_per_ksyn", 1000*ratio(float64(st.evicted), float64(st.syns)))
	set("summary.close_us_per_period", ratio(us(lt(spans, "summary.ClosePeriod").self), float64(st.periods)))

	post := lt(spans, "uplink.post")
	set("uplink.post_ms_p50", quantile(post.durs, 0.5))
	if t := tr.transport; t != nil {
		set("summary.censored_frac", ratio(float64(t.censored), float64(t.summaries)))
		set("uplink.bytes_per_summary", ratio(float64(t.bytes), float64(t.summaries)))
		set("uplink.summaries_per_post", ratio(float64(t.summaries), float64(t.posts)))
	} else {
		set("summary.censored_frac", 0)
		set("uplink.bytes_per_summary", 0)
		set("uplink.summaries_per_post", 0)
	}
	set("uplink.dropped", float64(tr.upDropped))
	set("uplink.failed", float64(tr.upFailed))
	ingest := lt(spans, "fusion.ingest")
	set("fusion.ingest_us_per_post", ratio(us(ingest.total), float64(ingest.count())))
	set("fusion.gaps", float64(tr.gaps))
	set("fusion.stale", float64(tr.staleObsv))

	set("daemon.period_close_us_p50", 1e6*histQuantile(u.metricsText, "syndog_period_processing_seconds", 0.5))
	set("daemon.checkpoint_ms_p50", 1e3*histQuantile(u.metricsText, "syndog_checkpoint_write_seconds", 0.5))
	set("daemon.state_bytes", float64(u.stateBytes))
	byKind := map[string][]float64{}
	var metricsBytes, lat, late []float64
	for _, s := range u.scrapes {
		byKind[s.kind] = append(byKind[s.kind], ms(s.lat-s.late))
		if s.kind == "metrics" {
			metricsBytes = append(metricsBytes, float64(s.bytes))
		}
		lat = append(lat, ms(s.lat))
		late = append(late, ms(s.late))
	}
	for _, k := range []string{"metrics", "status", "sources", "summaries"} {
		set("http."+k+"_ms_p50", quantile(byKind[k], 0.5))
	}
	set("http.metrics_bytes", quantile(metricsBytes, 0.5))
	set("go.gc_cycles", float64(u.gostats.gcCycles))
	set("go.gc_pause_ms", 1e3*u.gostats.pauseSec)
	set("go.alloc_mb", float64(u.gostats.allocByte)/1e6)
	uw, tw := median(uWalls), median(tr.walls)
	set("bench.trace_overhead_frac", ratio(tw-uw, uw))
	set("bench.scrape_late_ms_p90", quantile(late, 0.9))
	set("fused_latency_p50_ms", quantile(u.fusedLatMS, 0.5))
	set("fused_latency_p90_ms", quantile(u.fusedLatMS, 0.9))
	set("scrape_p50_ms", quantile(lat, 0.5))
	set("scrape_p99_ms", quantile(lat, 0.99))
	set("failed_frac", ratio(float64(out.res.Failed), float64(out.res.Attempted)))

	out.note("# untraced replays %d (median %.4fs), traced replays %d (median %.4fs), %d spans in %d names",
		len(uWalls), uw, len(tr.walls), tw, len(store.spans), len(spans))
	for _, name := range sortedKeys(spans) {
		l := spans[name]
		out.note("# span %-26s n=%-7d total=%-12v self=%v", name, l.count(), l.total.Round(time.Microsecond), l.self.Round(time.Microsecond))
	}
	return nil
}

// histQuantile estimates the q-quantile of a latency histogram family
// from a Prometheus text exposition, summing the buckets of every agent
// and interpolating linearly inside the bucket that holds the rank, as
// Prometheus' histogram_quantile does. It returns 0 for an empty
// histogram.
func histQuantile(text, family string, q float64) float64 {
	type bucket struct{ le, count float64 }
	cum := map[float64]float64{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family+"_bucket{")
		if !ok {
			continue
		}
		labels, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		_, le, ok := strings.Cut(labels, `le="`)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(le, `"`)
		bound, err := strconv.ParseFloat(le, 64)
		c, err2 := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || err2 != nil {
			continue
		}
		cum[bound] += c
	}
	var bs []bucket
	for le, c := range cum {
		bs = append(bs, bucket{le, c})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].count
	if total == 0 {
		return 0
	}
	rank := q * total
	prevLe, prevC := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if b.le > 1e300 { // +Inf: the largest finite bound is the best estimate
				return prevLe
			}
			if b.count == prevC {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevC)/(b.count-prevC)
		}
		prevLe, prevC = b.le, b.count
	}
	return prevLe
}
