package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapng"
)

// This file holds the streaming record readers the ingest pipeline is
// built on: each decodes one record at a time in O(1) memory. The
// materializing readers (ReadBinary, ReadCSV, ReadPcap) are thin
// collect loops over these streams, so there is exactly one decoder
// per format.

// BinaryStream decodes the compact binary format. Records are decoded
// in place from the bufio buffer: NextBatch converts every whole
// record already buffered in one loop, so a refill is one read per
// buffer, not one copy per record.
type BinaryStream struct {
	br    *bufio.Reader
	name  string
	span  time.Duration
	count uint32
	read  uint32
}

// NewBinaryStream parses the binary header and returns a stream over
// the records. The span and name are known immediately.
func NewBinaryStream(r io.Reader) (*BinaryStream, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, wrapTrunc(err)
	}
	if magic != binaryMagic {
		return nil, ErrBadMagic
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, wrapTrunc(err)
	}
	s := &BinaryStream{
		br:    br,
		span:  time.Duration(binary.LittleEndian.Uint64(hdr[0:8])),
		count: binary.LittleEndian.Uint32(hdr[8:12]),
	}
	var nameLen [2]byte
	if _, err := io.ReadFull(br, nameLen[:]); err != nil {
		return nil, wrapTrunc(err)
	}
	name := make([]byte, binary.LittleEndian.Uint16(nameLen[:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, wrapTrunc(err)
	}
	s.name = string(name)
	return s, nil
}

// Span returns the header's capture span.
func (s *BinaryStream) Span() time.Duration { return s.span }

// Name returns the header's trace name.
func (s *BinaryStream) Name() string { return s.name }

// Count returns the header's record count.
func (s *BinaryStream) Count() uint32 { return s.count }

// Next returns the next record, io.EOF after the header's count has
// been delivered, or ErrTruncated when the stream ends early.
func (s *BinaryStream) Next() (Record, error) {
	var rec [1]Record
	if _, err := s.NextBatch(rec[:]); err != nil {
		return Record{}, err
	}
	return rec[0], nil
}

// NextBatch decodes up to len(buf) records into buf, returning how
// many were filled. io.EOF (possibly alongside n > 0) means the
// header's count has been delivered; ErrTruncated means the stream
// ended early. Each round waits only for one more record, then decodes
// every whole record the buffer already holds and discards them in one
// step.
func (s *BinaryStream) NextBatch(buf []Record) (int, error) {
	n := 0
	for n < len(buf) {
		left := s.count - s.read
		if left == 0 {
			return n, io.EOF
		}
		if _, err := s.br.Peek(recordWireLen); err != nil {
			return n, wrapTrunc(err)
		}
		k := min(len(buf)-n, s.br.Buffered()/recordWireLen)
		if uint64(k) > uint64(left) {
			k = int(left)
		}
		// The k records are already buffered: Peek and Discard can
		// neither fail nor block.
		b, _ := s.br.Peek(k * recordWireLen)
		for i := range buf[n : n+k] {
			buf[n+i] = decodeRecord(b[i*recordWireLen : (i+1)*recordWireLen])
		}
		s.br.Discard(k * recordWireLen)
		s.read += uint32(k)
		n += k
	}
	return n, nil
}

// decodeRecord decodes one 22-byte binary record.
func decodeRecord(rec []byte) Record {
	rec = rec[:recordWireLen]
	return Record{
		Ts:      time.Duration(binary.LittleEndian.Uint64(rec[0:8])),
		Kind:    packet.Kind(rec[8]),
		Dir:     Direction(rec[9]),
		Src:     netip.AddrFrom4([4]byte(rec[10:14])),
		Dst:     netip.AddrFrom4([4]byte(rec[14:18])),
		SrcPort: binary.LittleEndian.Uint16(rec[18:20]),
		DstPort: binary.LittleEndian.Uint16(rec[20:22]),
	}
}

// Close implements the ingest Source contract; the stream does not own
// the underlying reader.
func (s *BinaryStream) Close() error { return nil }

// CSVStream decodes the text format line by line. The span and name
// come from the "# trace" header line, which WriteCSV emits first;
// they are known once a line at or past the header has been scanned.
type CSVStream struct {
	sc     *bufio.Scanner
	name   string
	span   time.Duration
	lineNo int
}

// NewCSVStream returns a stream over the CSV records.
func NewCSVStream(r io.Reader) *CSVStream {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &CSVStream{sc: sc}
}

// Span returns the span declared by the header line, or 0 if no header
// has been scanned yet. It is authoritative once Next has returned
// io.EOF.
func (s *CSVStream) Span() time.Duration { return s.span }

// Name returns the trace name declared by the header line, if any.
func (s *CSVStream) Name() string { return s.name }

// Next returns the next record or io.EOF at end of input.
func (s *CSVStream) Next() (Record, error) {
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# trace "):
			var hdr Trace
			if err := parseCSVHeader(&hdr, line); err != nil {
				return Record{}, fmt.Errorf("trace: line %d: %w", s.lineNo, err)
			}
			s.name, s.span = hdr.Name, hdr.Span
			continue
		case strings.HasPrefix(line, "#") || strings.HasPrefix(line, "ts_ns"):
			continue
		}
		rec, err := parseCSVRecord(line)
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", s.lineNo, err)
		}
		return rec, nil
	}
	if err := s.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// NextBatch decodes up to len(buf) records into buf. io.EOF (possibly
// alongside n > 0) marks the end of input.
func (s *CSVStream) NextBatch(buf []Record) (int, error) {
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

// Close implements the ingest Source contract.
func (s *CSVStream) Close() error { return nil }

// PcapStream decodes a libpcap capture packet by packet: each frame
// has its link-layer header stripped (pcapng.LinkPayload — Ethernet
// MAC headers and VLAN tags never reach the classifier), is decoded
// and classified in one pass by packet.DecodeTCP4, and becomes a
// Record whose direction is inferred from the destination relative to
// stubPrefix. Non-TCP, non-IPv4, fragmented and malformed packets are
// skipped, exactly as the leaf-router classifier would ignore them.
// Frames are decoded in place in the reader's buffer
// (pcapng.Reader.NextReuse); only the record fields are copied out.
//
// A pcap file carries no span header: Span reports lastTs+1 once the
// stream is exhausted (0 before). Records are delivered in capture
// order; captures from a single interface are time-ordered, which the
// ingest pipeline verifies — use ReadPcap to repair unordered files.
type PcapStream struct {
	pr   *pcapng.Reader
	max  time.Duration
	seen bool
}

// NewPcapStream parses the pcap file header and returns a stream.
func NewPcapStream(r io.Reader) (*PcapStream, error) {
	pr, err := pcapng.NewReader(r)
	if err != nil {
		return nil, err
	}
	switch pr.LinkType() {
	case pcapng.LinkTypeRaw, pcapng.LinkTypeEthernet:
	default:
		return nil, fmt.Errorf("trace: unsupported link type %d", pr.LinkType())
	}
	return &PcapStream{pr: pr}, nil
}

// Span returns lastTs+1 after the stream is exhausted, 0 before (pcap
// files carry no span header).
func (s *PcapStream) Span() time.Duration {
	if !s.seen {
		return 0
	}
	return s.max + 1
}

// NextDir returns the next record with direction assigned by
// destination: packets destined inside stubPrefix are inbound,
// everything else outbound. Destination is the right discriminator
// because flood SYNs carry forged sources — a source-based rule would
// misfile the very packets SYN-dog must count.
func (s *PcapStream) NextDir(stubPrefix netip.Prefix) (Record, error) {
	var rec [1]Record
	if _, err := s.NextBatchDir(stubPrefix, rec[:]); err != nil {
		return Record{}, err
	}
	return rec[0], nil
}

// NextBatchDir decodes up to len(buf) classified records into buf with
// NextDir's destination-based direction rule. io.EOF (possibly
// alongside n > 0) marks a clean end of stream. The whole
// decode+classify loop runs inside one call against the reader's
// buffer, which is what lets the batch pipeline amortize its
// per-record costs.
func (s *PcapStream) NextBatchDir(stubPrefix netip.Prefix, buf []Record) (int, error) {
	link := s.pr.LinkType()
	n := 0
	for n < len(buf) {
		p, err := s.pr.NextReuse()
		if err != nil {
			return n, err
		}
		rec, ok := DecodeFrame(link, p.Ts, p.Data, stubPrefix)
		if !ok {
			continue
		}
		s.extend(p.Ts)
		buf[n] = rec
		n++
	}
	return n, nil
}

// DecodeFrame decodes one captured link-layer frame into a record: the
// link header is stripped (pcapng.LinkPayload), packet.DecodeTCP4
// classifies and decodes the packet, and the record is inbound exactly
// when its destination lies inside stubPrefix. ok is false for frames
// the classifier ignores: non-IPv4, non-TCP, fragmented or malformed.
// The offline pcap stream and the live capture parser both decode
// through it, so the two cannot disagree on the same bytes.
func DecodeFrame(linkType uint32, ts time.Duration, data []byte, stubPrefix netip.Prefix) (Record, bool) {
	raw, err := pcapng.LinkPayload(linkType, data)
	if err != nil {
		return Record{}, false
	}
	src, dst, sport, dport, kind, ok := packet.DecodeTCP4(raw)
	if !ok {
		return Record{}, false
	}
	dstAddr := netip.AddrFrom4(dst)
	dir := DirOut
	if stubPrefix.Contains(dstAddr) {
		dir = DirIn
	}
	return Record{
		Ts:      ts,
		Kind:    kind,
		Dir:     dir,
		Src:     netip.AddrFrom4(src),
		Dst:     dstAddr,
		SrcPort: sport,
		DstPort: dport,
	}, true
}

// Skim drains the stream without building records and returns how
// many frames NextBatchDir would have delivered. The span advances
// exactly as it would over those records, so after a clean Skim Span
// is final — the O(1) prescan a replay is sized by.
func (s *PcapStream) Skim() (int, error) {
	link := s.pr.LinkType()
	n := 0
	for {
		p, err := s.pr.NextReuse()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		raw, err := pcapng.LinkPayload(link, p.Data)
		if err != nil {
			continue
		}
		if _, _, _, _, _, ok := packet.DecodeTCP4(raw); ok {
			s.extend(p.Ts)
			n++
		}
	}
}

// extend grows the span over one classified frame. Span covers
// classified records only, matching ReadPcap's historical behavior:
// skipped frames never extend it.
func (s *PcapStream) extend(ts time.Duration) {
	if ts > s.max || !s.seen {
		s.max = ts
		s.seen = true
	}
}

// Close implements the ingest Source contract.
func (s *PcapStream) Close() error { return nil }
