package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/summary"
	"repro/internal/trace"
)

// span is one timed call into a layer. Parent is the index of the span
// that was open on the same flow when it began, -1 for a root.
type span struct {
	name       string
	parent     int32
	start, end time.Duration // since the store's base instant
}

// spanStore keeps every span of a traced run in memory; write dumps
// them when the run ends.
type spanStore struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newSpanStore() *spanStore { return &spanStore{base: time.Now()} }

// flow is one sequential caller (a replay goroutine, the uplink sender,
// the coordinator's ingest handler): spans it begins nest under the
// span it has open.
type flow struct {
	s     *spanStore
	stack []int32
}

func (s *spanStore) flow() *flow { return &flow{s: s} }

func (f *flow) begin(name string) int32 {
	now := time.Since(f.s.base)
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	id := int32(len(f.s.spans))
	parent := int32(-1)
	if n := len(f.stack); n > 0 {
		parent = f.stack[n-1]
	}
	f.s.spans = append(f.s.spans, span{name: name, parent: parent, start: now})
	f.stack = append(f.stack, id)
	return id
}

func (f *flow) end(id int32) {
	now := time.Since(f.s.base)
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.spans[id].end = now
	f.stack = f.stack[:len(f.stack)-1]
}

// layerTime aggregates the spans of one name. Self time is each span's
// duration minus the time its children cover; children of one span run
// on its flow, one after another, so their durations add.
type layerTime struct {
	total, self time.Duration
	durs        []float64 // per-span durations in ms
}

func (l *layerTime) count() int { return len(l.durs) }

func (s *spanStore) summarize() map[string]*layerTime {
	s.mu.Lock()
	defer s.mu.Unlock()
	child := make([]time.Duration, len(s.spans))
	for _, sp := range s.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	out := make(map[string]*layerTime)
	for i, sp := range s.spans {
		l := out[sp.name]
		if l == nil {
			l = &layerTime{}
			out[sp.name] = l
		}
		d := sp.end - sp.start
		l.total += d
		l.self += d - child[i]
		l.durs = append(l.durs, ms(d))
	}
	return out
}

// lt returns the named aggregate, empty when no such span ran.
func lt(m map[string]*layerTime, name string) *layerTime {
	if l := m[name]; l != nil {
		return l
	}
	return &layerTime{}
}

// write dumps the spans as tab-separated id, parent, name, start and
// end in nanoseconds since the run began.
func (s *spanStore) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for i, sp := range s.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, sp.parent, sp.name, sp.start.Nanoseconds(), sp.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// frameTimer wraps a capture.FrameReader and accumulates the time spent
// in ReadFrame. It keeps a sum, not a span per frame: a run reads
// millions of frames, and a span each would dominate memory.
type frameTimer struct {
	capture.FrameReader
	ns, n atomic.Int64
}

func (f *frameTimer) ReadFrame() (capture.Frame, error) {
	start := time.Now()
	fr, err := f.FrameReader.ReadFrame()
	f.ns.Add(int64(time.Since(start)))
	f.n.Add(1)
	return fr, err
}

// tracedSource records a span around every batch read of a source.
type tracedSource struct {
	ingest.Source
	bs      ingest.BatchSource
	fl      *flow
	name    string
	records int
}

func newTracedSource(src ingest.Source, fl *flow, name string) *tracedSource {
	return &tracedSource{Source: src, bs: ingest.AsBatch(src), fl: fl, name: name}
}

func (s *tracedSource) NextBatch(buf []trace.Record) (int, error) {
	id := s.fl.begin(s.name)
	n, err := s.bs.NextBatch(buf)
	s.fl.end(id)
	s.records += n
	return n, err
}

// tracedCapture is a tracedSource over a capture.Source that keeps the
// faces the daemon reads off a live source: the span learned at EOF,
// ring drops and capture accounting.
type tracedCapture struct {
	*tracedSource
	c *capture.Source
}

func (s *tracedCapture) Span() time.Duration  { return s.c.Span() }
func (s *tracedCapture) Dropped() uint64      { return s.c.Dropped() }
func (s *tracedCapture) Stats() capture.Stats { return s.c.Stats() }

// tracedDetector records a span around every period the detector folds.
type tracedDetector struct {
	ingest.Detector
	fl *flow
}

func (d *tracedDetector) Period(p ingest.Period) core.Report {
	id := d.fl.begin("core.Period")
	defer d.fl.end(id)
	return d.Detector.Period(p)
}

// tracedTap records spans around a record tap's batch and period-close
// calls: the keyed tracker inside the summary tap, or the summary tap
// itself as the aggregator sees it.
type tracedTap struct {
	inner          summary.BatchRecordTap
	fl             *flow
	record, closeP string
}

func (t *tracedTap) Record(r trace.Record) { t.inner.Record(r) }

func (t *tracedTap) RecordBatch(recs []trace.Record) {
	id := t.fl.begin(t.record)
	t.inner.RecordBatch(recs)
	t.fl.end(id)
}

func (t *tracedTap) ClosePeriod(index int, end time.Duration) {
	id := t.fl.begin(t.closeP)
	t.inner.ClosePeriod(index, end)
	t.fl.end(id)
}

// tracedTransport records a span around every uplink POST and counts
// what the batches carried.
type tracedTransport struct {
	rt http.RoundTripper
	fl *flow

	mu        sync.Mutex
	posts     int
	bytes     int64
	summaries int
	censored  int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			data, _ := io.ReadAll(body)
			var batch []struct {
				Censored bool `json:"censored"`
			}
			if json.Unmarshal(data, &batch) == nil {
				t.mu.Lock()
				t.posts++
				t.bytes += int64(len(data))
				t.summaries += len(batch)
				for _, ps := range batch {
					if ps.Censored {
						t.censored++
					}
				}
				t.mu.Unlock()
			}
		}
	}
	id := t.fl.begin("uplink.post")
	defer t.fl.end(id)
	return t.rt.RoundTrip(req)
}

// tracedHandler records a span around every request a handler serves.
type tracedHandler struct {
	h    http.Handler
	fl   *flow
	name string
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.fl.begin(h.name)
	defer h.fl.end(id)
	h.h.ServeHTTP(w, r)
}
