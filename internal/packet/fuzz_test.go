package packet

import (
	"net/netip"
	"testing"
)

// FuzzClassify asserts the classifier is total: any byte string gets a
// verdict, no panics, and valid marshaled segments round-trip to their
// flag classification.
func FuzzClassify(f *testing.F) {
	seg := Build(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"),
		1, 2, 3, 4, FlagSYN)
	f.Add(seg.Marshal(nil))
	f.Add([]byte{})
	f.Add(make([]byte, 19))
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind := Classify(raw)
		if kind > KindOther {
			t.Fatalf("impossible kind %d", kind)
		}
		// If it classified as TCP, Unmarshal must also succeed and
		// agree, except for packets with IP options (IHL > 5), which
		// Classify handles but the fixed-header codec rejects.
		if kind != KindNotTCP && raw[0]&0x0f == 5 {
			var s Segment
			if err := s.Unmarshal(raw[:min(len(raw), 40)]); err == nil {
				if got := s.Kind(); got != kind {
					t.Fatalf("Classify = %v but Segment.Kind = %v", kind, got)
				}
			}
		}
	})
}

// FuzzSegmentUnmarshal asserts the segment codec never panics and that
// successfully decoded segments re-marshal to a classifiable packet.
func FuzzSegmentUnmarshal(f *testing.F) {
	good := Build(netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"),
		80, 443, 7, 9, FlagSYN|FlagACK)
	f.Add(good.Marshal(nil))
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Segment
		if err := s.Unmarshal(raw); err != nil {
			return
		}
		out := s.Marshal(nil)
		if Classify(out) != s.Kind() {
			t.Fatalf("re-marshaled segment classifies differently")
		}
	})
}

// FuzzDecodeTCP4 pins the fused decoder to the two-step reference it
// replaces on the ingest paths: ok holds exactly when Classify and
// Segment.Unmarshal both accept, and then every field equals the
// Segment's.
func FuzzDecodeTCP4(f *testing.F) {
	seg := Build(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("130.216.0.9"),
		1234, 80, 7, 0, FlagSYN)
	good := seg.Marshal(nil)
	f.Add(good)
	f.Add(good[:39])
	f.Add(append(good, 0xde, 0xad))
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		src, dst, sport, dport, kind, ok := DecodeTCP4(raw)
		var s Segment
		want := Classify(raw) != KindNotTCP && s.Unmarshal(raw) == nil
		if ok != want {
			t.Fatalf("DecodeTCP4 ok = %v, Classify+Unmarshal accept = %v", ok, want)
		}
		if !ok {
			return
		}
		if netip.AddrFrom4(src) != s.IP.Src || netip.AddrFrom4(dst) != s.IP.Dst ||
			sport != s.TCP.SrcPort || dport != s.TCP.DstPort || kind != s.Kind() {
			t.Fatalf("DecodeTCP4 = %v %v %d %d %v, Segment = %+v", src, dst, sport, dport, kind, s)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
