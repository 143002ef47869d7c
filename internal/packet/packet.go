// Package packet implements the IPv4 and TCP header encoding, decoding
// and classification that a SYN-dog leaf router performs on the wire.
//
// Section 2 of the paper describes the classification procedure the
// router applies to every IP packet:
//
//  1. check that the packet carries a TCP header (protocol 6) with
//     zero fragmentation offset (a fragmented payload cannot contain
//     the TCP flags);
//  2. compute the offset of the TCP flag bits from the IP header
//     length field;
//  3. read the six TCP flag bits to determine the segment type.
//
// Classify implements exactly that path directly on raw bytes without
// allocation, because it sits on the per-packet fast path of the
// simulated router. Full header structs with Marshal/Unmarshal are
// also provided for trace tooling and the TCP endpoint substrate.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// TCP flag bits, as found in the 13th byte of the TCP header.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// ProtocolTCP is the IPv4 protocol number of TCP.
const ProtocolTCP = 6

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// Kind is the classification of a TCP segment by its flag bits, the
// granularity SYN-dog needs: it counts SYNs and SYN/ACKs; FIN and RST
// are classified too for the companion detectors in internal/detect.
type Kind uint8

// Classification outcomes.
const (
	// KindNotTCP marks packets that are not classifiable TCP segments
	// (non-TCP protocol, fragments, truncated headers).
	KindNotTCP Kind = iota
	// KindSYN is a connection request: SYN set, ACK clear.
	KindSYN
	// KindSYNACK is the server's handshake reply: SYN and ACK set.
	KindSYNACK
	// KindFIN is a teardown segment: FIN set.
	KindFIN
	// KindRST is a reset segment: RST set.
	KindRST
	// KindOther is any other valid TCP segment (pure ACK, data, ...).
	KindOther
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNotTCP:
		return "not-tcp"
	case KindSYN:
		return "syn"
	case KindSYNACK:
		return "syn-ack"
	case KindFIN:
		return "fin"
	case KindRST:
		return "rst"
	case KindOther:
		return "other"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ClassifyFlags maps raw TCP flag bits to a Kind. Precedence follows
// the detector's needs: SYN/ACK before SYN, RST before FIN, so that a
// pathological segment with several control bits lands in the bucket
// the paper's counters would use.
func ClassifyFlags(flags uint8) Kind {
	switch {
	case flags&FlagSYN != 0 && flags&FlagACK != 0:
		return KindSYNACK
	case flags&FlagSYN != 0:
		return KindSYN
	case flags&FlagRST != 0:
		return KindRST
	case flags&FlagFIN != 0:
		return KindFIN
	default:
		return KindOther
	}
}

// Classify performs the paper's three-step packet classification on a
// raw IPv4 packet. It never allocates and tolerates malformed input by
// returning KindNotTCP.
func Classify(raw []byte) Kind {
	if len(raw) < IPv4HeaderLen {
		return KindNotTCP
	}
	if raw[0]>>4 != 4 { // IPv4 only
		return KindNotTCP
	}
	ihl := int(raw[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(raw) < ihl+14 {
		// Need at least up to the TCP flags byte (offset 13 in the TCP
		// header).
		return KindNotTCP
	}
	if raw[9] != ProtocolTCP {
		return KindNotTCP
	}
	// Fragment check: flags+offset live in bytes 6-7. A packet with a
	// nonzero fragment offset, or with MF set, cannot be classified by
	// TCP flags (only the first fragment carries the TCP header, and
	// the paper requires zero fragmentation offset).
	fragField := binary.BigEndian.Uint16(raw[6:8])
	if fragField&0x1fff != 0 || fragField&0x2000 != 0 {
		return KindNotTCP
	}
	return ClassifyFlags(raw[ihl+13])
}

// Errors returned by the header codecs.
var (
	ErrTruncated  = errors.New("packet: buffer too short")
	ErrNotIPv4    = errors.New("packet: not an IPv4 packet")
	ErrBadHdrLen  = errors.New("packet: bad header length")
	ErrNotTCP     = errors.New("packet: not a TCP packet")
	ErrFragmented = errors.New("packet: fragmented packet")
)

// IPv4Header is a decoded IPv4 header (options unsupported: the
// simulated routers never emit them, and Unmarshal rejects them
// explicitly rather than mis-parsing).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	DontFrag bool
	MoreFrag bool
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
}

// Marshal appends the 20-byte wire encoding of h to dst and returns
// the extended slice. The checksum is computed over the header.
func (h *IPv4Header) Marshal(dst []byte) []byte {
	start := len(dst)
	var buf [IPv4HeaderLen]byte
	buf[0] = 4<<4 | 5 // version 4, IHL 5
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	frag := h.FragOff & 0x1fff
	if h.DontFrag {
		frag |= 0x4000
	}
	if h.MoreFrag {
		frag |= 0x2000
	}
	binary.BigEndian.PutUint16(buf[6:8], frag)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	src := h.Src.As4()
	dstAddr := h.Dst.As4()
	copy(buf[12:16], src[:])
	copy(buf[16:20], dstAddr[:])
	sum := Checksum(buf[:], 0)
	binary.BigEndian.PutUint16(buf[10:12], sum)
	return append(dst[:start], buf[:]...)
}

// Unmarshal decodes an IPv4 header from raw. Headers with options
// (IHL > 5) are rejected with ErrBadHdrLen.
func (h *IPv4Header) Unmarshal(raw []byte) error {
	if len(raw) < IPv4HeaderLen {
		return ErrTruncated
	}
	if raw[0]>>4 != 4 {
		return ErrNotIPv4
	}
	if raw[0]&0x0f != 5 {
		return ErrBadHdrLen
	}
	h.TOS = raw[1]
	h.TotalLen = binary.BigEndian.Uint16(raw[2:4])
	h.ID = binary.BigEndian.Uint16(raw[4:6])
	frag := binary.BigEndian.Uint16(raw[6:8])
	h.DontFrag = frag&0x4000 != 0
	h.MoreFrag = frag&0x2000 != 0
	h.FragOff = frag & 0x1fff
	h.TTL = raw[8]
	h.Protocol = raw[9]
	h.Src = netip.AddrFrom4([4]byte(raw[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(raw[16:20]))
	return nil
}

// TCPHeader is a decoded TCP header without options.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16
}

// Marshal appends the 20-byte wire encoding of t to dst and returns
// the extended slice. The checksum field is left zero; WriteChecksum
// fills it in when a pseudo-header is available.
func (t *TCPHeader) Marshal(dst []byte) []byte {
	var buf [TCPHeaderLen]byte
	binary.BigEndian.PutUint16(buf[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], t.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], t.Seq)
	binary.BigEndian.PutUint32(buf[8:12], t.Ack)
	buf[12] = 5 << 4 // data offset 5 words
	buf[13] = t.Flags
	binary.BigEndian.PutUint16(buf[14:16], t.Window)
	binary.BigEndian.PutUint16(buf[18:20], t.Urgent)
	return append(dst, buf[:]...)
}

// Unmarshal decodes a TCP header from raw. TCP options, if present,
// are skipped (only the fixed 20 bytes are interpreted).
func (t *TCPHeader) Unmarshal(raw []byte) error {
	if len(raw) < TCPHeaderLen {
		return ErrTruncated
	}
	dataOff := int(raw[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(raw) {
		return ErrBadHdrLen
	}
	t.SrcPort = binary.BigEndian.Uint16(raw[0:2])
	t.DstPort = binary.BigEndian.Uint16(raw[2:4])
	t.Seq = binary.BigEndian.Uint32(raw[4:8])
	t.Ack = binary.BigEndian.Uint32(raw[8:12])
	t.Flags = raw[13]
	t.Window = binary.BigEndian.Uint16(raw[14:16])
	t.Urgent = binary.BigEndian.Uint16(raw[18:20])
	return nil
}

// Kind classifies the header's flag bits.
func (t *TCPHeader) Kind() Kind { return ClassifyFlags(t.Flags) }

// Segment is a full decoded TCP/IPv4 packet as used by the simulator
// and the trace tooling.
type Segment struct {
	IP  IPv4Header
	TCP TCPHeader
}

// Build constructs a Segment with the given addressing and flags,
// filling in sensible defaults (TTL 64, window 65535).
func Build(src, dst netip.Addr, srcPort, dstPort uint16, seq, ack uint32, flags uint8) Segment {
	return Segment{
		IP: IPv4Header{
			TotalLen: IPv4HeaderLen + TCPHeaderLen,
			TTL:      64,
			Protocol: ProtocolTCP,
			Src:      src,
			Dst:      dst,
		},
		TCP: TCPHeader{
			SrcPort: srcPort,
			DstPort: dstPort,
			Seq:     seq,
			Ack:     ack,
			Flags:   flags,
			Window:  65535,
		},
	}
}

// Marshal appends the full wire encoding (IP header + TCP header with
// checksum) to dst and returns the extended slice.
func (s *Segment) Marshal(dst []byte) []byte {
	ipStart := len(dst)
	dst = s.IP.Marshal(dst)
	tcpStart := len(dst)
	dst = s.TCP.Marshal(dst)
	// TCP checksum over pseudo-header + TCP header.
	sum := pseudoHeaderSum(s.IP.Src, s.IP.Dst, uint16(len(dst)-tcpStart))
	csum := Checksum(dst[tcpStart:], sum)
	binary.BigEndian.PutUint16(dst[tcpStart+16:tcpStart+18], csum)
	_ = ipStart
	return dst
}

// Unmarshal decodes a full segment from raw, validating the protocol
// and fragmentation constraints the classifier requires.
func (s *Segment) Unmarshal(raw []byte) error {
	if err := s.IP.Unmarshal(raw); err != nil {
		return err
	}
	if s.IP.Protocol != ProtocolTCP {
		return ErrNotTCP
	}
	if s.IP.FragOff != 0 || s.IP.MoreFrag {
		return ErrFragmented
	}
	return s.TCP.Unmarshal(raw[IPv4HeaderLen:])
}

// Kind classifies the segment.
func (s *Segment) Kind() Kind { return s.TCP.Kind() }

// DecodeTCP4 is the fused per-packet decode of the ingest paths: one
// pass over raw yields the addressing and classification a trace
// record needs. ok is true exactly when Classify(raw) != KindNotTCP
// and Segment.Unmarshal(raw) succeeds — an options-free IPv4 header
// (IHL 5) carrying TCP, no fragment offset or MF bit, at least 40
// bytes, and a TCP data offset that fits the packet — and then every
// field equals the decoded Segment's. It never allocates.
func DecodeTCP4(raw []byte) (src, dst [4]byte, sport, dport uint16, kind Kind, ok bool) {
	if len(raw) < IPv4HeaderLen+TCPHeaderLen || raw[0] != 4<<4|5 || raw[9] != ProtocolTCP {
		return
	}
	if binary.BigEndian.Uint16(raw[6:8])&0x3fff != 0 { // MF bit or fragment offset
		return
	}
	tcp := raw[IPv4HeaderLen:]
	if dataOff := int(tcp[12]>>4) * 4; dataOff < TCPHeaderLen || dataOff > len(tcp) {
		return
	}
	return [4]byte(raw[12:16]), [4]byte(raw[16:20]),
		binary.BigEndian.Uint16(tcp[0:2]), binary.BigEndian.Uint16(tcp[2:4]),
		ClassifyFlags(tcp[13]), true
}

// Checksum computes the ones-complement Internet checksum of data,
// seeded with an initial partial sum (use 0 for plain headers, or the
// pseudo-header sum for TCP).
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	i := 0
	for ; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		sum += uint32(data[i]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum returns the partial checksum of the TCP/IPv4
// pseudo-header (src, dst, zero, protocol, TCP length).
func pseudoHeaderSum(src, dst netip.Addr, tcpLen uint16) uint32 {
	var sum uint32
	s4, d4 := src.As4(), dst.As4()
	sum += uint32(s4[0])<<8 | uint32(s4[1])
	sum += uint32(s4[2])<<8 | uint32(s4[3])
	sum += uint32(d4[0])<<8 | uint32(d4[1])
	sum += uint32(d4[2])<<8 | uint32(d4[3])
	sum += ProtocolTCP
	sum += uint32(tcpLen)
	return sum
}

// VerifyTCPChecksum reports whether the TCP checksum of a marshaled
// segment (IP header options-free) is valid.
func VerifyTCPChecksum(raw []byte) bool {
	var ip IPv4Header
	if err := ip.Unmarshal(raw); err != nil {
		return false
	}
	tcpBytes := raw[IPv4HeaderLen:]
	if len(tcpBytes) < TCPHeaderLen {
		return false
	}
	sum := pseudoHeaderSum(ip.Src, ip.Dst, uint16(len(tcpBytes)))
	return Checksum(tcpBytes, sum) == 0
}
