// Package daemon is the hardened operational core shared by the
// long-lived SYN-dog binaries (cmd/syndogd, cmd/syndogfleet): capture
// replay through an ingest pipeline — instant, paced against absolute
// wall-clock deadlines, or live — live HTTP state, and durable
// snapshot / checkpoint handling.
//
// The package exists to make the resume/replay path provably
// equivalent to a single uninterrupted run, which is what the CUSUM
// change-point literature assumes of a continuously-running statistic:
//
//   - Replay is resume-aware: a detector restored from a snapshot with
//     N completed periods skips the first N periods of the capture
//     instead of re-appending them.
//   - Pacing derives every period boundary from one start instant, so
//     scheduler latency inside a period does not accumulate into the
//     next (no chained time.After drift).
//   - Replay failures are daemon state, surfaced via /status and
//     /healthz (503) and returned from Run so the process exits
//     non-zero — never discarded.
//   - Snapshots are durable (fsync before rename, directory fsync) and
//     can be written periodically on a checkpoint interval, so a crash
//     loses at most one interval of evidence.
//
// Replay runs on the ingest pipeline: any ingest.Source (in-memory
// trace, streaming binary/CSV/pcap/iptrace file, live capture) feeds
// any ingest.Detector (the paper's CUSUM agent or a baseline) through
// one ingest.Aggregator in one replay loop — instant, paced or live —
// so a daemon over a multi-gigabyte pcap holds one record chunk and
// four counters in memory, never the capture.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Options configures a Daemon beyond its detector and source.
type Options struct {
	// Name prefixes log lines (default "daemon"; cmd/syndogd passes
	// its own name so operator-facing output is unchanged).
	Name string
	// Log receives the startup banner and checkpoint notices (default
	// os.Stderr; tests redirect it).
	Log io.Writer
	// StatePath, when non-empty, is where Checkpoint and SaveState
	// persist the agent snapshot.
	StatePath string
	// CheckpointInterval enables periodic snapshots during Run when
	// positive and StatePath is set. Zero disables checkpointing; the
	// final snapshot on shutdown is written regardless.
	CheckpointInterval time.Duration
	// Tracker, when non-nil, is the per-source attribution engine:
	// replay taps every counted record into it, /sources and the
	// keyed /metrics gauges expose it, and SaveState persists its
	// keyed snapshot alongside the agent's. Its period clock must
	// match the detector's resume offset (NewStream validates).
	Tracker *sourcetrack.Tracker
	// Monitor names this daemon in its exported summaries — the
	// identity a fusion coordinator sees (default Name). The
	// supervisor passes each agent's spec name.
	Monitor string
	// Summary shapes the exported form of the summary stream: the
	// censoring threshold λ and the top-K digest budget. It applies to
	// /summaries and the uplink; the locally-stored summaries (and so
	// /reports, /status, /metrics) always keep full fidelity.
	Summary summary.Config
	// Uplink, when non-nil, receives every closed period's summary —
	// the push half of distributed fusion. The uplink is shared
	// process-wide and never owned by the daemon; callers close it.
	Uplink *summary.Uplink
}

func (o *Options) applyDefaults() {
	if o.Name == "" {
		o.Name = "daemon"
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	if o.Monitor == "" {
		o.Monitor = o.Name
	}
}

// Daemon owns an ingest pipeline replaying one capture behind a mutex:
// the replay goroutine writes, HTTP handlers and checkpoints read.
type Daemon struct {
	opts Options

	mu    sync.Mutex
	det   ingest.Detector
	agent *core.Agent // non-nil only for the CUSUM detector; snapshots need it
	src   ingest.Source

	srcName    string
	srcRecords int // record count when known up front, -1 for pure streams
	t0         time.Duration
	span       time.Duration

	resumeOffset int  // periods already in the detector when the daemon started
	totalPeriods int  // complete periods the capture spans; 0 for live sources
	live         bool // live source: unbounded span, data-driven period closes
	records      int  // records replayed so far (this run)
	skipped      int  // records skipped: their period predates the resume point
	done         bool
	replayErr    error

	// midPeriod is set while the open period has counted records and
	// cleared when it closes or the replay exits. The keyed tracker
	// counts records as they arrive, so a snapshot taken mid-period
	// would count them again on resume, and a bounded replay honours
	// cancellation only between periods. A checkpoint that finds a
	// period half-fed sets ckptWant and waits on boundary; the replay
	// goroutine captures the state into ckptState (ckptErr) at the next
	// close, or at its exit, under the same lock hold, then bumps
	// ckptSeq. The replay never has to yield the lock at the boundary.
	midPeriod bool
	boundary  *sync.Cond
	ckptWant  bool
	ckptSeq   int
	ckptState State
	ckptErr   error

	// summaries is the per-period summary store — the single code path
	// every per-period consumer (/reports, /status, /metrics,
	// /summaries, the uplink) reads. Resumed history is backfilled at
	// construction (digest-free: per-period tracker views no longer
	// exist); live periods append through the summarizer tap.
	summarizer *summary.Summarizer
	summaries  []summary.PeriodSummary

	periodLatency     metrics.Histogram // agg.ClosePeriod wall time per period
	checkpointLatency metrics.Histogram // SaveState wall time per checkpoint attempt

	checkpoints        int
	lastCheckpoint     time.Time
	checkpointFailures int
	lastCheckpointErr  error
}

// New validates the trace once at the door and builds a daemon around
// agent. If the agent was resumed from a snapshot, its existing report
// history becomes the resume offset: replay will skip that many
// leading periods. New fails on an invalid or too-short trace, or when
// the agent's history claims more periods than the trace holds (the
// snapshot cannot have come from this trace/config pairing).
//
// New is the materialized-trace convenience over NewStream: the trace
// becomes an ingest.TraceSource and the agent an ingest.AgentDetector.
func New(agent *core.Agent, tr *trace.Trace, opts Options) (*Daemon, error) {
	if tr.Span <= 0 {
		return nil, fmt.Errorf("daemon: trace %q has no span", tr.Name)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: trace %q: %w", tr.Name, err)
	}
	return NewStream(ingest.WrapAgent(agent), ingest.NewTraceSource(tr),
		ingest.Info{Name: tr.Name, Span: tr.Span, Records: len(tr.Records)},
		agent.Config().T0, opts)
}

// NewStream builds a daemon that replays src through det — the fully
// streaming constructor. info must carry the capture span (prescan a
// pcap with ingest.PcapInfo first); info.Records may be -1 when the
// count is unknown up front. t0 is the observation period — detectors
// other than the CUSUM agent carry no period of their own.
//
// Unlike New, the source's records are validated as they stream:
// unordered or out-of-span records fail the replay (surfacing via
// /healthz and Replay's error) rather than failing construction.
func NewStream(det ingest.Detector, src ingest.Source, info ingest.Info, t0 time.Duration, opts Options) (*Daemon, error) {
	return newDaemon(det, src, info, t0, false, opts)
}

// NewLive builds a daemon over a live source — a capture.Source on an
// interface or pcap pipe, or any other ingest.Source whose span is
// unknowable up front. There is no fixed period count and no pacing:
// records arrive in real time and a period closes when the first
// record of the next one crosses the boundary (a completely quiet
// period closes only when traffic resumes). Replay ends when the
// source does — never for an interface, at stream end for a pipe —
// with the complete periods the stream spanned closed, exactly as a
// bounded replay of the same capture closes them.
//
// Resume still works: a detector restored with N periods makes the
// aggregator skip records timestamped inside them, which is exactly
// right for replaying a capture file through the live path and
// meaningless-but-harmless for a freshly-rebased interface feed (whose
// operator should start with fresh state).
func NewLive(det ingest.Detector, src ingest.Source, name string, t0 time.Duration, opts Options) (*Daemon, error) {
	return newDaemon(det, src, ingest.Info{Name: name, Records: -1}, t0, true, opts)
}

// newDaemon is the constructor body NewStream and NewLive share. A
// bounded source must span at least one period and at least the
// detector's resumed history; a live one has no span to check.
func newDaemon(det ingest.Detector, src ingest.Source, info ingest.Info, t0 time.Duration, live bool, opts Options) (*Daemon, error) {
	opts.applyDefaults()
	if t0 <= 0 {
		return nil, fmt.Errorf("daemon: non-positive observation period %v", t0)
	}
	resume := det.Periods()
	periods := 0
	if !live {
		if info.Span <= 0 {
			return nil, fmt.Errorf("daemon: trace %q has no span", info.Name)
		}
		periods = int(info.Span / t0)
		if periods == 0 {
			return nil, fmt.Errorf("daemon: trace %q span %v shorter than one period %v", info.Name, info.Span, t0)
		}
		if resume > periods {
			return nil, fmt.Errorf("daemon: snapshot holds %d periods but trace %q spans only %d — wrong trace or state file",
				resume, info.Name, periods)
		}
	}
	if opts.Tracker != nil && opts.Tracker.Periods() != resume {
		return nil, fmt.Errorf("daemon: keyed state holds %d periods but detector holds %d — mismatched snapshot halves",
			opts.Tracker.Periods(), resume)
	}
	d := &Daemon{
		opts:         opts,
		det:          det,
		src:          src,
		srcName:      info.Name,
		srcRecords:   info.Records,
		t0:           t0,
		span:         info.Span,
		live:         live,
		resumeOffset: resume,
		totalPeriods: periods,
	}
	d.boundary = sync.NewCond(&d.mu)
	if ad, ok := det.(*ingest.AgentDetector); ok {
		d.agent = ad.Agent()
	}
	d.summarizer = &summary.Summarizer{
		Monitor: opts.Monitor,
		Cfg:     opts.Summary,
		Tracker: opts.Tracker,
	}
	d.summaries = d.summarizer.Backfill(det.Reports())
	return d, nil
}

// emitSummary appends one closed period's summary to the store and
// pushes it up the uplink. It runs inside the aggregator's period
// close, which the replay loop always executes under d.mu — no
// re-locking here (and Uplink.Send never blocks).
func (d *Daemon) emitSummary(ps summary.PeriodSummary) {
	d.summaries = append(d.summaries, ps)
	if d.opts.Uplink != nil {
		d.opts.Uplink.Send(ps)
	}
}

// Close releases the daemon's source. The supervisor (and any caller
// of BuildAgent) owns daemons whose sources it never opened itself —
// pcap-backed ones hold an open file — so teardown goes through here.
// Close does not stop a running replay; cancel its context first.
func (d *Daemon) Close() error {
	return d.src.Close()
}

// ResumeOffset returns how many periods of the capture are skipped
// because the detector already reported them before this daemon
// started.
func (d *Daemon) ResumeOffset() int { return d.resumeOffset }

// TotalPeriods returns how many complete periods the capture spans.
func (d *Daemon) TotalPeriods() int { return d.totalPeriods }

// Replay feeds the source through the detector, skipping periods
// already covered by the detector's history. speed <= 0 replays
// instantly; a positive speed replays that many trace seconds per wall
// second, pacing each period boundary against an absolute deadline
// derived from the replay start instant. A live source ignores speed:
// it already arrives in real time. The returned error is also recorded
// in daemon state (visible via /status and /healthz) unless it is the
// context's cancellation.
func (d *Daemon) Replay(ctx context.Context, speed float64) error {
	err := d.replay(ctx, speed)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.atBoundaryLocked()
	switch {
	case err == nil:
		d.done = true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Interrupted, not failed: the daemon is simply not done.
	default:
		d.replayErr = err
	}
	return err
}

// replay is the one replay loop, in three modes: instant and paced
// over a bounded source, and live. Every mode folds each period's
// records, then closes the period through the one timed
// agg.ClosePeriod; only paced mode waits for the period's deadline
// first. A bounded replay closes exactly the periods its span holds —
// empty ones too, once the source runs dry — and never reads past the
// last complete one. A live replay's aggregator is unbounded (span 0):
// it closes a period when a record crosses its boundary and, when the
// stream ends, the complete periods out to the stream's span.
func (d *Daemon) replay(ctx context.Context, speed float64) error {
	// The summarizer tap is the single emission path for closed
	// periods: it folds the tracker (when present), builds the period's
	// summary from the detector's report, and hands it to emitSummary —
	// which appends to the store and feeds the uplink. The aggregator's
	// sink captures the report for the period being closed.
	var inner summary.RecordTap
	if d.opts.Tracker != nil {
		inner = d.opts.Tracker
	}
	tap := summary.NewTap(d.summarizer, inner, d.emitSummary)
	agg, err := ingest.NewAggregator(d.t0, d.span, d.det, tap.Sink)
	if err != nil {
		return err
	}
	agg.SetTap(tap)
	if d.live {
		speed = 0
		// A live source blocks on a quiet wire; cancellation must close
		// it to unblock the read, not just set a flag the loop never
		// reaches.
		stopClose := context.AfterFunc(ctx, func() { _ = d.src.Close() })
		defer stopClose()
	}

	// Chunked lookahead over the source: records land in one chunk
	// buffer and buf[pos:n] is the unconsumed window.
	bs := ingest.AsBatch(d.src)
	buf := make([]trace.Record, ingest.DefaultChunk)
	var (
		pos, n  int
		srcDone bool
	)
	// feedUntil folds the records stamped before limit into the
	// aggregator, refilling the window as it empties, and stops at the
	// first record at or past limit — which stays in the window — or at
	// source end. Reads run without d.mu held, so a slow source never
	// stalls the HTTP plane, and until the open period counts a record
	// the context is checked once per chunk, so an unpaced drain of a
	// multi-gigabyte resume prefix stays interruptible.
	feedUntil := func(limit time.Duration) error {
		for {
			if !d.midPeriod {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if pos == n {
				if srcDone {
					return nil
				}
				m, err := bs.NextBatch(buf)
				pos, n = 0, m
				if err == io.EOF {
					srcDone = true
				} else if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						// Cancellation closed the source out from under
						// the read.
						return cerr
					}
					return err
				}
				continue
			}
			cut := pos
			for cut < n && buf[cut].Ts < limit {
				cut++
			}
			if cut == pos {
				return nil
			}
			d.mu.Lock()
			err := agg.FeedBatch(buf[pos:cut])
			counted := agg.Records() - agg.Skipped()
			d.midPeriod = d.midPeriod || counted > d.records
			d.records, d.skipped = counted, agg.Skipped()
			d.mu.Unlock()
			if err != nil {
				return err
			}
			pos = cut
		}
	}
	closePeriod := func() {
		d.mu.Lock()
		start := time.Now()
		agg.ClosePeriod()
		d.periodLatency.Observe(time.Since(start).Seconds())
		d.atBoundaryLocked()
		d.mu.Unlock()
	}

	// Records inside already-reported periods were counted before the
	// snapshot was taken; replaying them would double-count, so the
	// aggregator drops them. Drain them before pacing starts so the
	// skip counter is complete when the first period opens.
	if err := feedUntil(d.t0 * time.Duration(d.resumeOffset)); err != nil {
		return err
	}

	var (
		start     time.Time
		perPeriod time.Duration
		timer     *time.Timer
	)
	if speed > 0 {
		start = time.Now()
		perPeriod = time.Duration(float64(d.t0) / speed)
		timer = time.NewTimer(0)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
	}

	for p := d.resumeOffset; d.live || p < d.totalPeriods; p++ {
		if speed > 0 {
			// Drift-free pacing: period p ends at an absolute deadline
			// derived from the start instant. A late wakeup shortens
			// the next wait instead of pushing every later period back
			// the way chained time.After calls do.
			deadline := start.Add(time.Duration(p-d.resumeOffset+1) * perPeriod)
			timer.Reset(time.Until(deadline))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		}
		if err := feedUntil(agg.NextBoundary()); err != nil {
			return err
		}
		if d.live && srcDone && pos == n {
			break // the open period is the stream's trailing partial one
		}
		closePeriod()
	}
	if !d.live {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err // cancellation closed the source: it did not end
	}

	// A finite live feed (pcap pipe at EOF): close out the complete
	// periods the stream spanned, exactly as the bounded path would have
	// for the same capture — the trailing partial period stays
	// unreported on both paths, which is what keeps live pcap replay
	// bit-identical to file replay. With no records counted beyond the
	// resume point, or no span of at least one period, there is nothing
	// to close.
	ss, ok := d.src.(ingest.SpanSource)
	if !ok || agg.Records() <= agg.Skipped() || ss.Span() < d.t0 {
		return nil
	}
	span := ss.Span()
	for agg.Done() < int(span/d.t0) {
		closePeriod()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return agg.Finish(span) // validates the span; every period is closed
}

// failReplay records err as the replay failure. It exists so tests can
// exercise the error-surfacing machinery (healthz 503, status field)
// without constructing a failing source.
func (d *Daemon) failReplay(err error) {
	d.mu.Lock()
	d.replayErr = err
	d.mu.Unlock()
}

// Run executes the replay and, when configured, the checkpoint loop.
// The supervisor serves every daemon behind one shared listener and
// drives each with Run.
//
// Run returns only once the checkpoint loop has exited: a periodic
// checkpoint still in flight could otherwise rename an older snapshot
// over the caller's final one.
func (d *Daemon) Run(ctx context.Context, speed float64) error {
	if d.opts.StatePath != "" && d.opts.CheckpointInterval > 0 {
		cctx, cancel := context.WithCancel(ctx)
		loopDone := make(chan struct{})
		go func() {
			defer close(loopDone)
			d.checkpointLoop(cctx)
		}()
		defer func() {
			cancel()
			<-loopDone
		}()
	}
	return d.Replay(ctx, speed)
}

// checkpointLoop persists the agent every CheckpointInterval until ctx
// is cancelled. Checkpoint failures are logged and counted (the
// syndog_checkpoint_failures_total metric and /status's
// lastCheckpointError), not fatal: the daemon keeps detecting even if
// its disk is briefly unhappy, and the final shutdown snapshot still
// runs.
func (d *Daemon) checkpointLoop(ctx context.Context) {
	t := time.NewTicker(d.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := d.Checkpoint(); err != nil {
				fmt.Fprintf(d.opts.Log, "%s: checkpoint: %v\n", d.opts.Name, err)
			}
		}
	}
}
