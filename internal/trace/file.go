package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
)

// Load reads a trace file, picking the codec from the extension:
//
//	.trace/.bin  binary
//	.csv         text
//	.pcap        libpcap (needs stubPrefix for direction inference)
//	.txt/.dump   tcpdump text (needs stubPrefix)
//	any + .gz    gzip-wrapped version of the inner extension
//
// Unknown extensions fall back to the binary codec.
func Load(path string, stubPrefix netip.Prefix) (*Trace, error) {
	return load(path, stubPrefix, nil)
}

// LoadValidated loads a trace and enforces its invariants (sorted
// timestamps within [0, Span)) once at the door, so downstream
// consumers — instant and paced replay alike — can assume a
// well-formed trace instead of each deciding whether to re-check.
// An unsorted trace mis-buckets observation periods silently, which is
// exactly the class of divergence a long-running daemon cannot afford.
// Binary traces are checked run by run inside the decode pass; the
// errors are exactly Validate's.
func LoadValidated(path string, stubPrefix netip.Prefix) (*Trace, error) {
	var v validator
	tr, err := load(path, stubPrefix, &v)
	if err != nil {
		return nil, err
	}
	if v.err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, v.err)
	}
	return tr, nil
}

// load is Load that, given a non-nil v, also runs v over the records:
// the binary codec inside its decode pass, the others after decoding.
func load(path string, stubPrefix netip.Prefix, v *validator) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var r io.Reader = f
	name := path
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
		name = strings.TrimSuffix(path, ".gz")
	}

	var tr *Trace
	switch {
	case strings.HasSuffix(name, ".csv"):
		tr, err = ReadCSV(r)
	case strings.HasSuffix(name, ".pcap"):
		if !stubPrefix.IsValid() {
			return nil, fmt.Errorf("trace: %s needs a stub prefix for direction inference", path)
		}
		tr, err = ReadPcap(r, path, stubPrefix)
	case strings.HasSuffix(name, ".txt"), strings.HasSuffix(name, ".dump"):
		if !stubPrefix.IsValid() {
			return nil, fmt.Errorf("trace: %s needs a stub prefix for direction inference", path)
		}
		tr, err = ReadTcpdump(r, path, stubPrefix)
	default:
		return readBinary(r, v)
	}
	if err != nil {
		return nil, err
	}
	if v != nil {
		v.span = tr.Span
		v.check(tr.Records)
	}
	return tr, nil
}

// Save writes a trace file, picking the codec from the extension (same
// rules as Load; pcap and tcpdump-text direction metadata is implicit
// in addresses, so all formats are writable except tcpdump text, which
// is an import-only format).
func Save(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var w io.Writer = f
	var gz *gzip.Writer
	name := path
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
		name = strings.TrimSuffix(path, ".gz")
	}

	switch {
	case strings.HasSuffix(name, ".csv"):
		err = WriteCSV(w, tr)
	case strings.HasSuffix(name, ".pcap"):
		err = WritePcap(w, tr)
	case strings.HasSuffix(name, ".txt"), strings.HasSuffix(name, ".dump"):
		err = fmt.Errorf("trace: tcpdump text is import-only")
	default:
		err = WriteBinary(w, tr)
	}
	if err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}
