package ingest

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/flood"
	"repro/internal/iptrace"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Info describes what a source knows about its container up front.
type Info struct {
	// Name is the trace name (header-carried or the file path).
	Name string
	// Span is the capture span; 0 when only known at EOF (pcap,
	// iptrace).
	Span time.Duration
	// Records is the record count; -1 when unknown up front.
	Records int
}

// TraceSource streams an in-memory trace — the adapter that keeps
// trace.Load-based callers (tcpdump import, generated traces) on the
// pipeline path.
type TraceSource struct {
	tr  *trace.Trace
	pos int
}

// NewTraceSource wraps an in-memory trace.
func NewTraceSource(tr *trace.Trace) *TraceSource {
	return &TraceSource{tr: tr}
}

// Next returns the next record.
func (s *TraceSource) Next() (trace.Record, error) {
	if s.pos >= len(s.tr.Records) {
		return trace.Record{}, io.EOF
	}
	r := s.tr.Records[s.pos]
	s.pos++
	return r, nil
}

// NextBatch copies up to len(buf) records into buf. For an in-memory
// trace a batch is a single copy, so the per-record cost of the batch
// pipeline over this source is pure memmove.
func (s *TraceSource) NextBatch(buf []trace.Record) (int, error) {
	if s.pos >= len(s.tr.Records) {
		return 0, io.EOF
	}
	n := copy(buf, s.tr.Records[s.pos:])
	s.pos += n
	if s.pos >= len(s.tr.Records) {
		return n, io.EOF
	}
	return n, nil
}

// Span returns the trace's declared span.
func (s *TraceSource) Span() time.Duration { return s.tr.Span }

// Name returns the trace's name.
func (s *TraceSource) Name() string { return s.tr.Name }

// Close implements Source.
func (s *TraceSource) Close() error { return nil }

// NewSyntheticSource generates a site profile trace and streams it —
// synthetic background traffic on the pipeline path.
func NewSyntheticSource(p trace.Profile, seed int64) (*TraceSource, error) {
	tr, err := trace.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	return NewTraceSource(tr), nil
}

// NewFloodSource renders a flood as a stream of outbound spoofed SYNs.
func NewFloodSource(cfg flood.Config) (*TraceSource, error) {
	tr, err := flood.GenerateTrace(cfg)
	if err != nil {
		return nil, err
	}
	return NewTraceSource(tr), nil
}

// ChanSource is the channel-backed live source: a netsim router tap
// (or any producer goroutine) sends records while the pipeline
// consumes them. By default sends block once the buffer fills —
// natural backpressure against a slow consumer. In drop mode
// (NewChanSourceDrop) a full buffer sheds the record instead and
// counts it, the right policy for a live capture feed where blocking
// the capture path loses ground truth anyway; the count is surfaced
// through Dropped so the loss is never silent.
type ChanSource struct {
	ch      chan trace.Record
	drop    bool
	dropped atomic.Uint64
}

// NewChanSource builds a live source buffering up to buf records.
// Sends block when the buffer is full.
func NewChanSource(buf int) *ChanSource {
	return &ChanSource{ch: make(chan trace.Record, buf)}
}

// NewChanSourceDrop builds a live source buffering up to buf records
// that sheds (and counts) records instead of blocking when the buffer
// overruns.
func NewChanSourceDrop(buf int) *ChanSource {
	return &ChanSource{ch: make(chan trace.Record, buf), drop: true}
}

// Send delivers one record to the consumer. In drop mode a full
// buffer discards the record and bumps the drop counter instead of
// blocking.
func (s *ChanSource) Send(r trace.Record) {
	if s.drop {
		select {
		case s.ch <- r:
		default:
			s.dropped.Add(1)
		}
		return
	}
	s.ch <- r
}

// Dropped reports how many records Send has shed because the buffer
// was full. Always 0 outside drop mode. ChanSource implements
// DropCounter so the daemon can export the count in /metrics.
func (s *ChanSource) Dropped() uint64 { return s.dropped.Load() }

// CloseSend marks the end of the stream; the consuming pipeline's
// Next returns io.EOF once the buffer drains.
func (s *ChanSource) CloseSend() { close(s.ch) }

// Tap adapts the source to a netsim router tap, classifying each
// forwarded segment into a record — the live-capture edge of the
// pipeline.
func (s *ChanSource) Tap() netsim.Tap {
	return func(now time.Duration, dir netsim.Direction, seg *packet.Segment) {
		d := trace.DirIn
		if dir == netsim.Outbound {
			d = trace.DirOut
		}
		s.Send(trace.Record{
			Ts:      now,
			Kind:    seg.Kind(),
			Dir:     d,
			Src:     seg.IP.Src,
			Dst:     seg.IP.Dst,
			SrcPort: seg.TCP.SrcPort,
			DstPort: seg.TCP.DstPort,
		})
	}
}

// Next blocks for the next record; io.EOF after CloseSend drains.
func (s *ChanSource) Next() (trace.Record, error) {
	r, ok := <-s.ch
	if !ok {
		return trace.Record{}, io.EOF
	}
	return r, nil
}

// NextBatch blocks for the first record, then opportunistically drains
// whatever else is already buffered without blocking again — a busy
// feed fills whole chunks, an idle one degrades to one record per call
// with no added latency.
func (s *ChanSource) NextBatch(buf []trace.Record) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	r, ok := <-s.ch
	if !ok {
		return 0, io.EOF
	}
	buf[0] = r
	n := 1
	for n < len(buf) {
		select {
		case r, ok := <-s.ch:
			if !ok {
				return n, io.EOF
			}
			buf[n] = r
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// Close implements Source. It does not close the send side; the
// producer owns that via CloseSend.
func (s *ChanSource) Close() error { return nil }

// pcapSource adapts trace.PcapStream to the Source interface, binding
// the stub prefix for direction inference and owning the file handle.
type pcapSource struct {
	s      *trace.PcapStream
	prefix netip.Prefix
	c      io.Closer
}

func (s *pcapSource) Next() (trace.Record, error) { return s.s.NextDir(s.prefix) }
func (s *pcapSource) Span() time.Duration         { return s.s.Span() }
func (s *pcapSource) Close() error                { return closeAll(s.c) }

// NextBatch runs the whole decode+classify loop inside trace.PcapStream
// — the native batch face of pcap ingest.
func (s *pcapSource) NextBatch(buf []trace.Record) (int, error) {
	return s.s.NextBatchDir(s.prefix, buf)
}

// IPTraceSource streams an iptrace capture, classifying each payload
// and taking direction from the record's tx flag — no stub prefix
// needed, the capture format carries direction natively.
type IPTraceSource struct {
	cr   *iptrace.CaptureReader
	c    io.Closer
	max  time.Duration
	seen bool
}

// NewIPTraceSource parses the capture magic and returns a source.
func NewIPTraceSource(r io.Reader) (*IPTraceSource, error) {
	cr, err := iptrace.NewCaptureReader(r)
	if err != nil {
		return nil, err
	}
	return &IPTraceSource{cr: cr}, nil
}

// Next returns the next classified TCP record.
func (s *IPTraceSource) Next() (trace.Record, error) {
	for {
		p, err := s.cr.Next()
		if err != nil {
			return trace.Record{}, err
		}
		src, dst, sport, dport, kind, ok := packet.DecodeTCP4(p.Data)
		if !ok {
			continue
		}
		dir := trace.DirIn
		if p.Tx {
			dir = trace.DirOut
		}
		if p.Ts > s.max || !s.seen {
			s.max = p.Ts
			s.seen = true
		}
		return trace.Record{
			Ts:      p.Ts,
			Kind:    kind,
			Dir:     dir,
			Src:     netip.AddrFrom4(src),
			Dst:     netip.AddrFrom4(dst),
			SrcPort: sport,
			DstPort: dport,
		}, nil
	}
}

// NextBatch decodes up to len(buf) classified records into buf.
func (s *IPTraceSource) NextBatch(buf []trace.Record) (int, error) {
	n := 0
	for n < len(buf) {
		r, err := s.Next()
		if err != nil {
			return n, err
		}
		buf[n] = r
		n++
	}
	return n, nil
}

// Span returns lastTs+1 once the stream is exhausted, 0 before.
func (s *IPTraceSource) Span() time.Duration {
	if !s.seen {
		return 0
	}
	return s.max + 1
}

// Close implements Source.
func (s *IPTraceSource) Close() error { return closeAll(s.c) }

// binarySource and csvSource bind the trace streams to their file
// handles.
type binarySource struct {
	*trace.BinaryStream
	c io.Closer
}

func (s *binarySource) Close() error { return closeAll(s.c) }

type csvSource struct {
	*trace.CSVStream
	c io.Closer
}

func (s *csvSource) Close() error { return closeAll(s.c) }

// Open opens a capture file as a streaming Source, picking the codec
// from the extension with the same rules as trace.Load plus the
// iptrace capture format:
//
//	.trace/.bin  binary (streamed)
//	.csv         text (streamed)
//	.pcap        libpcap (streamed; needs stubPrefix)
//	.ipt         iptrace 2.0 capture (streamed; direction from tx flag)
//	.txt/.dump   tcpdump text (materialized — needs sorting; stubPrefix)
//	any + .gz    gzip-wrapped version of the inner extension
//
// The returned Info reports what is known up front; zero Span means
// the source learns it at EOF. The caller must Close the source.
func Open(path string, stubPrefix netip.Prefix) (Source, Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Info{}, err
	}
	src, info, err := openReader(f, f, path, stubPrefix)
	if err != nil {
		f.Close()
		return nil, Info{}, err
	}
	return src, info, nil
}

// openReader builds the source for path's extension over r, with c
// owning the underlying handles.
func openReader(r io.Reader, c io.Closer, path string, stubPrefix netip.Prefix) (Source, Info, error) {
	name := path
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, Info{}, fmt.Errorf("ingest: gzip %s: %w", path, err)
		}
		r = gz
		c = multiCloser{gz, c}
		name = strings.TrimSuffix(path, ".gz")
	}

	switch {
	case strings.HasSuffix(name, ".csv"):
		return &csvSource{CSVStream: trace.NewCSVStream(r), c: c}, Info{Name: path, Records: -1}, nil
	case strings.HasSuffix(name, ".pcap"):
		if !stubPrefix.IsValid() {
			return nil, Info{}, fmt.Errorf("trace: %s needs a stub prefix for direction inference", path)
		}
		s, err := trace.NewPcapStream(r)
		if err != nil {
			return nil, Info{}, err
		}
		return &pcapSource{s: s, prefix: stubPrefix, c: c}, Info{Name: path, Records: -1}, nil
	case strings.HasSuffix(name, ".ipt"):
		s, err := NewIPTraceSource(r)
		if err != nil {
			return nil, Info{}, err
		}
		s.c = c
		return s, Info{Name: path, Records: -1}, nil
	case strings.HasSuffix(name, ".txt"), strings.HasSuffix(name, ".dump"):
		// tcpdump text needs a post-parse sort, so it materializes;
		// everything downstream still streams.
		if !stubPrefix.IsValid() {
			return nil, Info{}, fmt.Errorf("trace: %s needs a stub prefix for direction inference", path)
		}
		tr, err := trace.ReadTcpdump(r, path, stubPrefix)
		if err != nil {
			return nil, Info{}, err
		}
		if cerr := closeAll(c); cerr != nil {
			return nil, Info{}, cerr
		}
		return NewTraceSource(tr), Info{Name: tr.Name, Span: tr.Span, Records: len(tr.Records)}, nil
	default:
		s, err := trace.NewBinaryStream(r)
		if err != nil {
			return nil, Info{}, err
		}
		return &binarySource{BinaryStream: s, c: c},
			Info{Name: s.Name(), Span: s.Span(), Records: int(s.Count())}, nil
	}
}

// PcapInfo prescans a pcap stream in O(1) memory, returning its
// classified-record count and span — how the daemon sizes a pcap
// replay (total periods, progress denominators) before re-opening the
// file for the paced run. The scan counts frames in place
// (trace.PcapStream.Skim) without building records.
func PcapInfo(r io.Reader) (Info, error) {
	s, err := trace.NewPcapStream(r)
	if err != nil {
		return Info{}, err
	}
	n, err := s.Skim()
	if err != nil {
		return Info{}, err
	}
	return Info{Span: s.Span(), Records: n}, nil
}

// multiCloser closes a chain of wrapped readers in order.
type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func closeAll(c io.Closer) error {
	if c == nil {
		return nil
	}
	return c.Close()
}
