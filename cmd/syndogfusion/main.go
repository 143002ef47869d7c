// Command syndogfusion runs the multi-vantage fusion coordinator: a
// small HTTP service that ingests bandwidth-capped per-period
// summaries uplinked by N SYN-dog monitors (syndogd -uplink,
// syndogfleet -uplink), fuses their censored local CUSUM statistics
// through a rank-based change detector, and localizes a dispersed
// flood to the carrying monitor subset and source prefixes. Each
// monitor alone may sit below its local detection floor; the
// coordinator alarms on their agreement.
//
// Endpoints:
//
//	POST /ingest   <- JSON array of period summaries (the uplink batch format)
//	GET  /healthz  -> 200 "ok"
//	GET  /status   -> fused statistic, alarm state, localization once alarmed
//	GET  /fused    -> per-period fused series (?from=N)
//	GET  /monitors -> per-monitor delivery/staleness state
//	GET  /metrics  -> Prometheus-style text exposition
//
// Usage:
//
//	syndogfusion -listen :9090 -expect 4
//	syndogfusion -expect 4 -quorum 3 -stale-after 5
//
// -expect holds fusion until that many monitors have registered, so a
// half-assembled fleet is never fused as if it were the whole picture;
// -quorum overrides the default majority rule; -stale-after is the lag
// (in periods behind the freshest monitor) after which a monitor is
// excluded from fusion and from the quorum denominator until it
// catches up.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/fusion"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "syndogfusion:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("syndogfusion", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:9090", "HTTP listen address")
		expect     = fs.Int("expect", 0, "hold fusion until this many monitors have registered (0 = fuse as they arrive)")
		quorum     = fs.Int("quorum", 0, "monitors that must be ready to fuse a period (0 = majority)")
		staleAfter = fs.Int("stale-after", fusion.DefaultStaleAfter, "periods behind the freshest monitor before exclusion")
		history    = fs.Int("history", fusion.DefaultHistory, "per-monitor sliding window for quantile normalization")
		minHist    = fs.Int("min-history", fusion.DefaultMinHistory, "observations before a monitor's quantiles count")
		offset     = fs.Float64("a", fusion.DefaultOffset, "fused CUSUM offset a")
		threshold  = fs.Float64("N", fusion.DefaultThreshold, "fused flooding threshold N")
		window     = fs.Int("localize-window", fusion.DefaultLocalizeWindow, "trailing periods scored for localization")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, err := fusion.NewCoordinator(fusion.Config{
		Expect:         *expect,
		Quorum:         *quorum,
		StaleAfter:     *staleAfter,
		History:        *history,
		MinHistory:     *minHist,
		Offset:         *offset,
		Threshold:      *threshold,
		LocalizeWindow: *window,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := daemon.NewHTTPServer(*listen, c.Handler())
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "syndogfusion: listening on %s\n", *listen)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}
