// Package pcapng reads and writes the classic libpcap capture format
// (the .pcap container, magic 0xa1b2c3d4) using only the standard
// library. The SYN-dog tooling uses it so synthetic traces round-trip
// through tcpdump/wireshark-compatible files.
//
// Both microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) variants
// are supported for reading, in either byte order; writing always
// emits the little-endian microsecond variant with LINKTYPE_RAW
// (packets start directly at the IPv4 header), which matches how the
// simulator produces packets: there is no Ethernet layer.
package pcapng

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Link types relevant to this repository.
const (
	// LinkTypeRaw means packets begin with the IP header (DLT_RAW=101).
	LinkTypeRaw = 101
	// LinkTypeEthernet is accepted on read; use LinkPayload to strip
	// the 14-byte MAC header (and any VLAN tags) so classification
	// never parses a MAC address as an IP header.
	LinkTypeEthernet = 1
)

// Ethernet framing constants for LinkPayload.
const (
	ethHeaderLen  = 14
	vlanTagLen    = 4
	etherTypeIPv4 = 0x0800
	etherTypeVLAN = 0x8100 // 802.1Q
	etherTypeQinQ = 0x88a8 // 802.1ad service tag
)

// LinkPayload errors.
var (
	ErrUnknownLink = errors.New("pcapng: unsupported link type")
	ErrShortFrame  = errors.New("pcapng: frame shorter than its link header")
	ErrNotIPv4     = errors.New("pcapng: frame does not carry IPv4")
)

// LinkPayload returns the network-layer (IPv4) payload of one captured
// frame given the capture's link type. LINKTYPE_RAW frames are returned
// unchanged; Ethernet frames have the 14-byte MAC header and any 802.1Q
// / 802.1ad VLAN tags stripped, and frames whose final EtherType is not
// IPv4 yield ErrNotIPv4. The returned slice aliases data.
func LinkPayload(linkType uint32, data []byte) ([]byte, error) {
	switch linkType {
	case LinkTypeRaw:
		return data, nil
	case LinkTypeEthernet:
		if len(data) < ethHeaderLen {
			return nil, ErrShortFrame
		}
		etherType := uint16(data[12])<<8 | uint16(data[13])
		off := ethHeaderLen
		for etherType == etherTypeVLAN || etherType == etherTypeQinQ {
			if len(data) < off+vlanTagLen {
				return nil, ErrShortFrame
			}
			etherType = uint16(data[off+2])<<8 | uint16(data[off+3])
			off += vlanTagLen
		}
		if etherType != etherTypeIPv4 {
			return nil, ErrNotIPv4
		}
		return data[off:], nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownLink, linkType)
	}
}

const (
	magicMicro        = 0xa1b2c3d4
	magicNano         = 0xa1b23c4d
	magicMicroSwapped = 0xd4c3b2a1
	magicNanoSwapped  = 0x4d3cb2a1
	versionMajor      = 2
	versionMinor      = 4
	fileHeaderLen     = 24
	recordHeaderLen   = 16
)

// Errors returned by the codec.
var (
	ErrBadMagic  = errors.New("pcapng: bad magic number")
	ErrTruncated = errors.New("pcapng: truncated file")
	ErrTooLarge  = errors.New("pcapng: packet exceeds snap length")
)

// Packet is one captured packet: a timestamp relative to an arbitrary
// epoch and the raw bytes starting at the link layer.
type Packet struct {
	// Ts is the capture timestamp. Readers express it as a Duration
	// since the Unix epoch of the capture; the SYN-dog pipeline only
	// uses differences, so the epoch is irrelevant.
	Ts time.Duration
	// Data is the captured bytes (snap-length truncated, like libpcap).
	Data []byte
}

// Writer emits a pcap stream. Construct with NewWriter, Add packets,
// and check the error of every call (Writer is a thin shim over an
// io.Writer and performs no buffering of its own).
type Writer struct {
	w       io.Writer
	snapLen uint32
	scratch []byte
}

// NewWriter writes the pcap file header and returns a Writer. snapLen
// bounds stored packet size; 0 selects the conventional 65535.
func NewWriter(w io.Writer, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = 65535
	}
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicro)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapng: write header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// Write appends one packet record. Packets longer than the snap length
// are rejected rather than silently truncated: the simulator controls
// its packet sizes, so truncation would be a bug.
func (w *Writer) Write(p Packet) error {
	if uint32(len(p.Data)) > w.snapLen {
		return ErrTooLarge
	}
	need := recordHeaderLen + len(p.Data)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	buf := w.scratch[:need]
	sec := uint32(p.Ts / time.Second)
	usec := uint32((p.Ts % time.Second) / time.Microsecond)
	binary.LittleEndian.PutUint32(buf[0:4], sec)
	binary.LittleEndian.PutUint32(buf[4:8], usec)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(p.Data)))
	copy(buf[recordHeaderLen:], p.Data)
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("pcapng: write record: %w", err)
	}
	return nil
}

// Reader decodes a pcap stream.
type Reader struct {
	br       *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	linkType uint32
	snapLen  uint32
	scratch  []byte                // copy-path NextReuse buffer
	hdr      [recordHeaderLen]byte // record-header buffer, kept off the per-call stack

	// win is NextReuse's zero-copy window: bytes peeked from br, of
	// which the first off are consumed records still to be discarded.
	win []byte
	off int
}

// NewReader parses the file header and returns a Reader.
//
// The stream is read through a 64 KiB bufio.Reader (r itself when it
// already is one that large): NextReuse walks whole records inside
// that buffer, and Next copies out of it, so a raw *os.File costs one
// read syscall per 64 KiB rather than two per packet.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapng: read header: %w", errTrunc(err))
	}
	rd := &Reader{br: br}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case magicMicro:
		rd.order = binary.LittleEndian
	case magicNano:
		rd.order, rd.nano = binary.LittleEndian, true
	case magicMicroSwapped:
		rd.order = binary.BigEndian
	case magicNanoSwapped:
		rd.order, rd.nano = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	rd.snapLen = rd.order.Uint32(hdr[16:20])
	rd.linkType = rd.order.Uint32(hdr[20:24])
	return rd, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen returns the capture's snap length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Next returns the next packet, or io.EOF at a clean end of stream.
// A partially written trailing record yields ErrTruncated. The packet's
// Data is freshly allocated and remains valid indefinitely.
func (r *Reader) Next() (Packet, error) {
	return r.next(false)
}

// NextReuse is Next with a zero-copy contract: the returned Packet's
// Data aliases the reader's buffer and is only valid until the
// following NextReuse or Next call. Streaming consumers that classify
// and drop each packet before pulling the next one — the ingest
// pipeline, the capture frame reader — use it to decode in place.
//
// Whole records are served straight out of the buffered window. A
// refill blocks only for the bytes the next record needs, never for a
// full buffer, so frames written to a FIFO by `tcpdump -w -` are
// delivered as soon as they are complete. Records that cannot sit in
// the window (larger than the buffer, truncated, or breaking the snap
// length) take Next's copy path, which yields the same errors.
func (r *Reader) NextReuse() (Packet, error) {
	if p, ok := r.window(); ok {
		return p, nil
	}
	if r.refill() {
		if p, ok := r.window(); ok {
			return p, nil
		}
	}
	return r.next(true)
}

// window serves the next record from the peeked window if it lies in
// it whole.
func (r *Reader) window() (Packet, bool) {
	w := r.win[r.off:]
	if len(w) < recordHeaderLen {
		return Packet{}, false
	}
	ts, capLen, err := r.header(w)
	end := recordHeaderLen + capLen
	if err != nil || end > len(w) {
		return Packet{}, false
	}
	r.off += end
	return Packet{Ts: ts, Data: w[recordHeaderLen:end:end]}, true
}

// refill discards the consumed records and peeks a new window holding
// at least the next whole record, plus whatever else is already
// buffered. It reports false when that record cannot be windowed.
func (r *Reader) refill() bool {
	r.flush()
	h, err := r.br.Peek(recordHeaderLen)
	if err != nil {
		return false
	}
	_, capLen, err := r.header(h)
	if err != nil || recordHeaderLen+capLen > r.br.Size() {
		return false
	}
	if _, err := r.br.Peek(recordHeaderLen + capLen); err != nil {
		return false
	}
	r.win, _ = r.br.Peek(r.br.Buffered()) // already buffered: cannot fail or block
	return true
}

// flush discards the window's consumed records from the buffer, so the
// copy path resumes exactly after the last record served.
func (r *Reader) flush() {
	if r.off > 0 {
		r.br.Discard(r.off) // the window is buffered bytes: cannot fail
	}
	r.win, r.off = nil, 0
}

// header decodes one record header into the timestamp and captured
// length, rejecting lengths over the snap length or the sanity cap.
func (r *Reader) header(h []byte) (time.Duration, int, error) {
	sec := r.order.Uint32(h[0:4])
	frac := r.order.Uint32(h[4:8])
	capLen := r.order.Uint32(h[8:12])
	if r.snapLen > 0 && capLen > r.snapLen {
		return 0, 0, fmt.Errorf("pcapng: record length %d exceeds snaplen %d", capLen, r.snapLen)
	}
	// Absolute sanity cap independent of the (attacker-controlled)
	// snaplen field: no real capture stores 16 MiB frames, and a
	// forged length must not drive allocation.
	const maxRecord = 16 << 20
	if capLen > maxRecord {
		return 0, 0, fmt.Errorf("pcapng: record length %d exceeds sanity cap", capLen)
	}
	ts := time.Duration(sec) * time.Second
	if r.nano {
		ts += time.Duration(frac) * time.Nanosecond
	} else {
		ts += time.Duration(frac) * time.Microsecond
	}
	return ts, int(capLen), nil
}

// next is the copy path: it reads one record out of the buffer into
// fresh memory, or into the reuse scratch.
func (r *Reader) next(reuse bool) (Packet, error) {
	r.flush()
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, errTrunc(err)
	}
	ts, capLen, err := r.header(r.hdr[:])
	if err != nil {
		return Packet{}, err
	}
	var data []byte
	if reuse {
		if cap(r.scratch) < capLen {
			r.scratch = make([]byte, capLen)
		}
		data = r.scratch[:capLen]
	} else {
		data = make([]byte, capLen)
	}
	if _, err := io.ReadFull(r.br, data); err != nil {
		return Packet{}, errTrunc(err)
	}
	return Packet{Ts: ts, Data: data}, nil
}

// ReadAll drains the stream into a slice.
func ReadAll(r io.Reader) ([]Packet, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Packet
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func errTrunc(err error) error {
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return ErrTruncated
	}
	return err
}
