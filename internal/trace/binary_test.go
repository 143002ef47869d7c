package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/packet"
)

// binaryTestTrace is long enough that its records span several of
// readBinary's decode runs.
func binaryTestTrace(t *testing.T) *Trace {
	t.Helper()
	p := Auckland()
	p.Name = "binary-test"
	p.Span = 10 * time.Minute
	p.OutagesPerHour = 0
	tr, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 2*binaryChunk {
		t.Fatalf("fixture has %d records, want at least %d", len(tr.Records), 2*binaryChunk)
	}
	return tr
}

func encodeBinary(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainBinary decodes data to its end — through Next when size is 0,
// else through NextBatch with a size-record buffer — and returns the
// records, whether a batch came back with records alongside a non-EOF
// error, and the terminal error (nil for io.EOF).
func drainBinary(t *testing.T, data []byte, size int) ([]Record, bool, error) {
	t.Helper()
	s, err := NewBinaryStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	if size == 0 {
		for {
			r, err := s.Next()
			if err == io.EOF {
				return out, false, nil
			}
			if err != nil {
				return out, false, err
			}
			out = append(out, r)
		}
	}
	buf := make([]Record, size)
	for {
		n, err := s.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, false, nil
		}
		if err != nil {
			return out, n > 0, err
		}
	}
}

// TestBinaryNextBatchMatchesNext: the bulk decoder yields exactly
// Next's records and terminal error at every batch size, including a
// batch that ends in a truncated record and so returns n > 0 together
// with ErrTruncated.
func TestBinaryNextBatchMatchesNext(t *testing.T) {
	full := encodeBinary(t, binaryTestTrace(t))
	short := bytes.Clone(full) // the header promises one record more than the body holds
	binary.LittleEndian.PutUint32(short[16:20], binary.LittleEndian.Uint32(short[16:20])+1)
	long := bytes.Clone(full) // the body holds one record more than the header promises
	binary.LittleEndian.PutUint32(long[16:20], binary.LittleEndian.Uint32(long[16:20])-1)
	inputs := map[string][]byte{
		"full":              full,
		"body-past-count":   long,
		"cut-mid-record":    full[:len(full)-5],
		"cut-at-record-end": short,
		"header-only":       full[:8+12+2+len("binary-test")],
	}
	for name, data := range inputs {
		want, _, wantErr := drainBinary(t, data, 0)
		for _, size := range []int{1, 7, 186, 4096, len(want) + 10} {
			got, partial, gotErr := drainBinary(t, data, size)
			if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s, batch %d: terminal error %v, Next %v", name, size, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, batch %d: %d records, Next %d", name, size, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, batch %d: record %d = %+v, Next %+v", name, size, i, got[i], want[i])
				}
			}
			if name == "cut-mid-record" && size == len(want)+10 && !partial {
				t.Errorf("%s: a batch over the cut should return its records with ErrTruncated", name)
			}
		}
		if name == "body-past-count" && (wantErr != nil || uint32(len(want)) != binary.LittleEndian.Uint32(long[16:20])) {
			t.Errorf("%s: Next read %d records, ending %v; want the header's count and a clean EOF", name, len(want), wantErr)
		}
		if name != "full" && name != "body-past-count" && !errors.Is(wantErr, ErrTruncated) {
			t.Errorf("%s: Next ended with %v, want ErrTruncated", name, wantErr)
		}
	}
}

// TestLoadBinaryExactSize: loading a binary trace from a regular file
// allocates the record slice once, at exactly the header's count —
// also past the 64k records an unsized reader is trusted with.
func TestLoadBinaryExactSize(t *testing.T) {
	const n = 1<<16 + 1000
	tr := &Trace{Name: "exact", Span: n * time.Millisecond, Records: make([]Record, n)}
	for i := range tr.Records {
		tr.Records[i] = Record{
			Ts:   time.Duration(i) * time.Millisecond,
			Kind: packet.KindSYN,
			Src:  netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			Dst:  netip.AddrFrom4([4]byte{130, 216, 0, 9}),
		}
	}
	path := filepath.Join(t.TempDir(), "x.trace")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(string, netip.Prefix) (*Trace, error){
		"Load": Load, "LoadValidated": LoadValidated,
	} {
		got, err := load(path, netip.Prefix{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(tr.Records); len(got.Records) != n || cap(got.Records) != n {
			t.Errorf("%s: len %d cap %d, want both %d", name, len(got.Records), cap(got.Records), n)
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got.Records[i], tr.Records[i])
			}
		}
	}
}

// TestLoadValidatedBinaryErrors: the validation folded into the binary
// decode pass reports exactly what Validate after a plain load reports,
// including violations that sit across a decode-run boundary, and a
// decode failure still wins over an earlier violation.
func TestLoadValidatedBinaryErrors(t *testing.T) {
	base := binaryTestTrace(t)
	mutate := func(f func(rs []Record)) *Trace {
		tr := &Trace{Name: base.Name, Span: base.Span, Records: append([]Record(nil), base.Records...)}
		f(tr.Records)
		return tr
	}
	cases := map[string]*Trace{
		"unsorted-at-run-boundary": mutate(func(rs []Record) { rs[binaryChunk].Ts = rs[binaryChunk-1].Ts - 1 }),
		"unsorted-late":            mutate(func(rs []Record) { rs[len(rs)-1].Ts = rs[len(rs)-2].Ts - 1 }),
		"past-span":                mutate(func(rs []Record) { rs[len(rs)-1].Ts = base.Span }),
		"negative":                 mutate(func(rs []Record) { rs[0].Ts = -1 }),
		"first-of-two":             mutate(func(rs []Record) { rs[3].Ts = -1; rs[binaryChunk+3].Ts = 0 }),
	}
	dir := t.TempDir()
	for name, tr := range cases {
		for _, ext := range []string{".trace", ".trace.gz"} {
			path := filepath.Join(dir, name+ext)
			if err := Save(path, tr); err != nil {
				t.Fatal(err)
			}
			verr := tr.Validate()
			if verr == nil {
				t.Fatalf("%s: fixture is valid", name)
			}
			want := fmt.Errorf("trace: %s: %w", path, verr)
			got, err := LoadValidated(path, netip.Prefix{})
			if got != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("%s%s: LoadValidated = %v, want %v", name, ext, err, want)
			}
			if errors.Is(verr, ErrUnsorted) != errors.Is(err, ErrUnsorted) {
				t.Errorf("%s%s: errors.Is(ErrUnsorted) differs from Validate's", name, ext)
			}
		}
	}

	// Truncation after a violation: the decode error wins, unwrapped,
	// exactly as loading first and validating after would report it.
	path := filepath.Join(dir, "cut.trace")
	data := encodeBinary(t, cases["unsorted-at-run-boundary"])
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadValidated(path, netip.Prefix{}); err != ErrTruncated {
		t.Errorf("truncated unsorted file: LoadValidated = %v, want ErrTruncated", err)
	}
}
