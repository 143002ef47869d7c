package pcapng

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

// readMixed drains a capture, calling NextReuse when reuse(i) holds for
// the i-th call and Next otherwise, and copies every packet out. It
// returns the packets and the terminal error (nil for a clean io.EOF),
// the same shape ReadAll has.
func readMixed(t *testing.T, raw []byte, reuse func(i int) bool) ([]Packet, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out []Packet
	for i := 0; ; i++ {
		var p Packet
		if reuse(i) {
			p, err = r.NextReuse()
		} else {
			p, err = r.Next()
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, Packet{Ts: p.Ts, Data: bytes.Clone(p.Data)})
	}
}

// sameAsReadAll fails the test unless got/gotErr equal ReadAll's result
// on raw: the same packets, byte for byte, and the same terminal error.
func sameAsReadAll(t *testing.T, raw []byte, got []Packet, gotErr error) {
	t.Helper()
	want, wantErr := ReadAll(bytes.NewReader(raw))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("terminal error %v, ReadAll %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d packets, ReadAll %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ts != want[i].Ts || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("packet %d: ts %v len %d, ReadAll ts %v len %d",
				i, got[i].Ts, len(got[i].Data), want[i].Ts, len(want[i].Data))
		}
	}
}

// mixedCapture writes n packets whose sizes cycle through small frames
// and ones of a few KiB, so records regularly straddle the end of the
// reader's 64 KiB window.
func mixedCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{40, 54, 1500, 0, 60, 4093, 40, 9000}
	for i := 0; i < n; i++ {
		data := make([]byte, sizes[i%len(sizes)])
		for j := range data {
			data[j] = byte(i + j)
		}
		if err := w.Write(Packet{Ts: time.Duration(i) * time.Microsecond, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestNextReuseDoesNotWaitForFullBuffer: a FIFO fed by `tcpdump -w -`
// delivers a frame and then goes quiet. NextReuse must hand that frame
// over at once instead of waiting for the buffer to fill.
func TestNextReuseDoesNotWaitForFullBuffer(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{0x45, 1, 2, 3, 4, 5}
	if err := w.Write(Packet{Ts: 7 * time.Second, Data: frame}); err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go pw.Write(buf.Bytes()) // header plus one frame, then the writer stalls
	defer pw.Close()

	got := make(chan Packet, 1)
	errc := make(chan error, 1)
	go func() {
		r, err := NewReader(pr)
		if err != nil {
			errc <- err
			return
		}
		p, err := r.NextReuse()
		if err != nil {
			errc <- err
			return
		}
		got <- Packet{Ts: p.Ts, Data: bytes.Clone(p.Data)}
	}()
	select {
	case p := <-got:
		if p.Ts != 7*time.Second || !bytes.Equal(p.Data, frame) {
			t.Fatalf("got ts %v data %v", p.Ts, p.Data)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("NextReuse held back a complete frame while the writer stalled")
	}
}

// TestInterleavedNextAndNextReuse: Next and NextReuse can be mixed in
// any order and read exactly what Next alone reads.
func TestInterleavedNextAndNextReuse(t *testing.T) {
	raw := mixedCapture(t, 200)
	patterns := map[string]func(int) bool{
		"reuse":       func(int) bool { return true },
		"alternate":   func(i int) bool { return i%2 == 0 },
		"every-third": func(i int) bool { return i%3 != 0 },
	}
	for name, reuse := range patterns {
		t.Run(name, func(t *testing.T) {
			got, err := readMixed(t, raw, reuse)
			if len(got) != 200 {
				t.Fatalf("read %d packets, want 200", len(got))
			}
			sameAsReadAll(t, raw, got, err)
		})
	}
}

// TestNextReuseCopyPathCases: records the window cannot serve — larger
// than the buffer, cut short, or over the snap length — read exactly as
// ReadAll reads them, packets and errors alike.
func TestNextReuseCopyPathCases(t *testing.T) {
	var big bytes.Buffer
	w, err := NewWriter(&big, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{60, 100_000, 60, 70_000, 40} {
		data := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := w.Write(Packet{Ts: time.Duration(i) * time.Second, Data: data}); err != nil {
			t.Fatal(err)
		}
	}

	full := mixedCapture(t, 48) // ends in a 9000-byte frame
	snap := append([]byte(nil), mixedCapture(t, 3)...)
	binary.LittleEndian.PutUint32(snap[16:20], 100) // snaplen below the 1500-byte third frame

	cases := map[string][]byte{
		"larger-than-window": big.Bytes(),
		"truncated-data":     full[:len(full)-5],
		"truncated-header":   full[:len(full)-9000-recordHeaderLen+3],
		"snaplen":            snap,
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := readMixed(t, raw, func(int) bool { return true })
			sameAsReadAll(t, raw, got, err)
			if name != "larger-than-window" && err == nil {
				t.Fatal("want a terminal error")
			}
		})
	}
}
