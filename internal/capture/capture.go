// Package capture is the live edge of the ingest pipeline: it turns
// captured link-layer frames — from an AF_PACKET socket on Linux
// (build tag "live") or from any pcap byte-stream (file, pipe, FIFO) —
// into trace.Record streams the rest of the system already speaks.
//
// The package is built from three pieces:
//
//   - FrameParser decodes one raw frame with the offline pcap path's
//     own decoder (trace.DecodeFrame: pcapng.LinkPayload link
//     stripping, the fused packet.DecodeTCP4 classify+decode,
//     destination-based direction inference), so a capture replayed
//     live is bit-identical to the same capture replayed through
//     ingest.Open.
//   - FrameReader abstracts where frames come from: PcapReader wraps
//     any pcap byte-stream; the AF_PACKET reader (afpacket_linux.go,
//     behind "linux && live") reads a real interface.
//   - Source runs a producer goroutine that parses frames into a
//     bounded ring of records. The consumer side implements
//     ingest.Source/ingest.BatchSource. In blocking mode (the default)
//     a full ring backpressures the reader — lossless, right for pipes
//     and replays. In drop mode a full ring sheds the record and
//     counts it (the ingest.DropCounter contract): a NIC cannot be
//     backpressured, so blocking the capture path would only move the
//     loss into the kernel where it is harder to see.
//
// Every loss is accounted: ring drops (Dropped, Stats.RingDropped),
// kernel-side drops (Stats.KernelDropped, from PACKET_STATISTICS when
// the AF_PACKET reader is active) and parser skips (Stats.Skipped)
// surface through the daemon's /status and the syndog_capture_*
// metrics.
package capture

import (
	"errors"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pcapng"
	"repro/internal/trace"
)

// Frame is one captured link-layer frame. Data is only valid until the
// next ReadFrame call (readers reuse their buffers, like
// pcapng.Reader.NextReuse).
type Frame struct {
	Ts   time.Duration
	Data []byte
}

// FrameReader supplies raw frames to a Source. Read returns io.EOF at
// a clean end of stream; Close must unblock a concurrently blocked
// ReadFrame (the Source's shutdown path depends on it).
type FrameReader interface {
	// ReadFrame returns the next frame, reusing an internal buffer.
	ReadFrame() (Frame, error)
	// LinkType is the pcap link type of the frames (LinkTypeRaw or
	// LinkTypeEthernet).
	LinkType() uint32
	// Drops reports frames the capture handle itself lost (kernel
	// buffer overruns); 0 for byte-stream readers.
	Drops() uint64
	// Close releases the handle and unblocks a pending ReadFrame.
	Close() error
}

// FrameParser decodes one captured frame into a trace.Record through
// trace.DecodeFrame, the decoder trace.PcapStream uses: link-layer
// stripping, the fused classify+decode of packet.DecodeTCP4, and
// destination-based direction inference. Live capture and file replay
// therefore decode the same bytes to the same records. Parse never
// panics on arbitrary bytes (pinned by FuzzFrameParse).
type FrameParser struct {
	linkType uint32
	prefix   netip.Prefix
}

// NewFrameParser builds a parser for frames of the given pcap link
// type. stubPrefix drives direction inference: packets destined inside
// it are inbound, everything else outbound (destination, not source,
// because flood SYNs carry forged sources).
func NewFrameParser(linkType uint32, stubPrefix netip.Prefix) (*FrameParser, error) {
	switch linkType {
	case pcapng.LinkTypeRaw, pcapng.LinkTypeEthernet:
	default:
		return nil, errors.New("capture: unsupported link type")
	}
	if !stubPrefix.IsValid() {
		return nil, errors.New("capture: frame parser needs a stub prefix for direction inference")
	}
	return &FrameParser{linkType: linkType, prefix: stubPrefix}, nil
}

// Parse decodes one frame captured at ts. ok is false for frames the
// classifier ignores: non-IPv4, non-TCP, fragmented or malformed — the
// same skips the offline pcap decoder applies.
func (p *FrameParser) Parse(ts time.Duration, data []byte) (rec trace.Record, ok bool) {
	return trace.DecodeFrame(p.linkType, ts, data, p.prefix)
}

// PcapReader is the portable FrameReader: it reads classic libpcap
// bytes from any io.Reader — a capture file, a FIFO fed by
// `tcpdump -w -`, a network pipe — one frame at a time in O(1) memory.
type PcapReader struct {
	pr *pcapng.Reader
	c  io.Closer
}

// NewPcapReader parses the pcap file header from r and returns a
// reader over its frames. c, when non-nil, is closed by Close and must
// unblock a pending read on r (an *os.File qualifies).
func NewPcapReader(r io.Reader, c io.Closer) (*PcapReader, error) {
	pr, err := pcapng.NewReader(r)
	if err != nil {
		return nil, err
	}
	switch pr.LinkType() {
	case pcapng.LinkTypeRaw, pcapng.LinkTypeEthernet:
	default:
		return nil, errors.New("capture: unsupported pcap link type")
	}
	return &PcapReader{pr: pr, c: c}, nil
}

// ReadFrame returns the next frame; its Data aliases an internal
// buffer overwritten by the next call.
func (p *PcapReader) ReadFrame() (Frame, error) {
	pkt, err := p.pr.NextReuse()
	if err != nil {
		return Frame{}, err
	}
	return Frame{Ts: pkt.Ts, Data: pkt.Data}, nil
}

// LinkType returns the capture's link type.
func (p *PcapReader) LinkType() uint32 { return p.pr.LinkType() }

// Drops implements FrameReader; a byte stream loses nothing itself.
func (p *PcapReader) Drops() uint64 { return 0 }

// Close closes the underlying handle, if the reader owns one.
func (p *PcapReader) Close() error {
	if p.c == nil {
		return nil
	}
	return p.c.Close()
}

// Stats is a point-in-time snapshot of a Source's accounting.
type Stats struct {
	// Frames counts frames read from the capture handle.
	Frames uint64
	// Parsed counts frames that decoded into records.
	Parsed uint64
	// Skipped counts frames the parser rejected (non-IPv4, non-TCP,
	// malformed).
	Skipped uint64
	// RingDropped counts records shed because the ring was full (drop
	// mode only) — the backpressure loss Dropped also reports.
	RingDropped uint64
	// KernelDropped counts frames the capture handle itself lost
	// before this process saw them (AF_PACKET kernel buffer overruns).
	KernelDropped uint64
}

// DefaultRing is the default ring capacity in records.
const DefaultRing = 4096

// Config parameterizes a Source.
type Config struct {
	// StubPrefix drives direction inference (required).
	StubPrefix netip.Prefix
	// Ring is the record ring capacity; 0 takes DefaultRing.
	Ring int
	// Drop sheds records (counting them) instead of blocking the
	// producer when the ring is full. Off, the reader is backpressured
	// — lossless, the right mode for pipes and replays. On is the
	// right mode for an interface: the NIC cannot be paused.
	Drop bool
	// Rebase shifts timestamps so the first frame is t=0 — what a
	// detector watching a live interface wants (AF_PACKET timestamps
	// are an arbitrary monotonic epoch). Leave off for pcap replay,
	// where the capture's own timeline must be preserved bit-exactly.
	Rebase bool
	// Name labels the source in reports (default "live").
	Name string
}

// Source adapts a FrameReader to the ingest pipeline: a producer
// goroutine parses frames into a bounded ring; Next/NextBatch consume
// it. It implements ingest.Source, ingest.BatchSource,
// ingest.SpanSource, ingest.NamedSource and ingest.DropCounter.
type Source struct {
	fr     FrameReader
	parser *FrameParser
	ch     chan trace.Record
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	name   string
	drop   bool
	rebase bool

	frames      atomic.Uint64
	parsed      atomic.Uint64
	skipped     atomic.Uint64
	ringDropped atomic.Uint64
	kernelFinal atomic.Uint64 // reader drops latched at producer exit
	readerDone  atomic.Bool

	maxTs atomic.Int64
	seen  atomic.Bool

	errMu   sync.Mutex
	readErr error // non-EOF reader failure, surfaced after the ring drains

	closeErr error
}

// NewSource wraps a FrameReader and starts the producer goroutine. The
// Source owns the reader: Close stops the producer and closes it.
func NewSource(fr FrameReader, cfg Config) (*Source, error) {
	if fr == nil {
		return nil, errors.New("capture: nil frame reader")
	}
	parser, err := NewFrameParser(fr.LinkType(), cfg.StubPrefix)
	if err != nil {
		return nil, err
	}
	ring := cfg.Ring
	if ring <= 0 {
		ring = DefaultRing
	}
	name := cfg.Name
	if name == "" {
		name = "live"
	}
	s := &Source{
		fr:     fr,
		parser: parser,
		ch:     make(chan trace.Record, ring),
		done:   make(chan struct{}),
		name:   name,
		drop:   cfg.Drop,
		rebase: cfg.Rebase,
	}
	s.wg.Add(1)
	go s.produce()
	return s, nil
}

// produce is the capture loop: read, parse, deliver. It owns the send
// side of the ring and closes it on exit, so consumers always see a
// clean end of stream.
func (s *Source) produce() {
	defer s.wg.Done()
	defer func() {
		s.kernelFinal.Store(s.fr.Drops())
		s.readerDone.Store(true)
		close(s.ch)
	}()
	var base time.Duration
	baseSet := false
	for {
		select {
		case <-s.done:
			return
		default:
		}
		f, err := s.fr.ReadFrame()
		if err != nil {
			if err != io.EOF {
				// A read failure after Close is just the shutdown
				// unblocking the reader, not a capture error.
				select {
				case <-s.done:
				default:
					s.errMu.Lock()
					s.readErr = err
					s.errMu.Unlock()
				}
			}
			return
		}
		s.frames.Add(1)
		ts := f.Ts
		if s.rebase {
			if !baseSet {
				base, baseSet = ts, true
			}
			ts -= base
			if ts < 0 {
				ts = 0 // non-monotonic capture clock; clamp, never go negative
			}
		}
		rec, ok := s.parser.Parse(ts, f.Data)
		if !ok {
			s.skipped.Add(1)
			continue
		}
		s.parsed.Add(1)
		// Span covers classified records only, exactly like the
		// offline pcap stream: skipped frames never extend it.
		if int64(ts) > s.maxTs.Load() || !s.seen.Load() {
			s.maxTs.Store(int64(ts))
			s.seen.Store(true)
		}
		if s.drop {
			select {
			case s.ch <- rec:
			default:
				s.ringDropped.Add(1)
			}
			continue
		}
		select {
		case s.ch <- rec:
		case <-s.done:
			return
		}
	}
}

// eof is what a drained ring means: a clean end of stream, unless the
// reader failed — then the failure is the stream's verdict.
func (s *Source) eof() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.readErr != nil {
		return s.readErr
	}
	return io.EOF
}

// Next blocks for the next record; io.EOF (or the reader's failure)
// once the producer has stopped and the ring has drained.
func (s *Source) Next() (trace.Record, error) {
	r, ok := <-s.ch
	if !ok {
		return trace.Record{}, s.eof()
	}
	return r, nil
}

// NextBatch blocks for the first record, then opportunistically drains
// whatever else is already ringed without blocking again — the same
// contract as ingest.ChanSource, so a busy feed fills whole chunks and
// an idle one degrades to one record per call with no added latency.
func (s *Source) NextBatch(buf []trace.Record) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	r, ok := <-s.ch
	if !ok {
		return 0, s.eof()
	}
	buf[0] = r
	n := 1
	for n < len(buf) {
		select {
		case r, ok := <-s.ch:
			if !ok {
				return n, s.eof()
			}
			buf[n] = r
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// Span reports lastTs+1 over the classified records once the producer
// has exited, and 0 while frames may still arrive — the
// ingest.SpanSource "not yet known" value, so a pipeline that asks
// early never sizes its replay from a partial span. This matches the
// offline pcap stream's contract.
func (s *Source) Span() time.Duration {
	if !s.readerDone.Load() || !s.seen.Load() {
		return 0
	}
	return time.Duration(s.maxTs.Load()) + 1
}

// Name labels the source in reports.
func (s *Source) Name() string { return s.name }

// Dropped reports records shed under backpressure — the
// ingest.DropCounter contract the daemon's recordsDropped accounting
// reads. Always 0 outside drop mode.
func (s *Source) Dropped() uint64 { return s.ringDropped.Load() }

// Stats returns a snapshot of the capture accounting.
func (s *Source) Stats() Stats {
	kernel := s.kernelFinal.Load()
	if !s.readerDone.Load() {
		kernel = s.fr.Drops()
	}
	return Stats{
		Frames:        s.frames.Load(),
		Parsed:        s.parsed.Load(),
		Skipped:       s.skipped.Load(),
		RingDropped:   s.ringDropped.Load(),
		KernelDropped: kernel,
	}
}

// Close stops the producer and closes the reader. It is idempotent and
// never deadlocks: a producer blocked on a full ring exits via the
// done channel, one blocked in ReadFrame is unblocked by the reader's
// Close. Records already ringed stay readable until io.EOF.
func (s *Source) Close() error {
	s.once.Do(func() {
		close(s.done)
		s.closeErr = s.fr.Close()
		s.wg.Wait()
	})
	return s.closeErr
}
