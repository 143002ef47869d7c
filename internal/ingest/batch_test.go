package ingest

import (
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

// batchChunkRecords builds one chunk of keyable records that all share
// a timestamp inside the current period, so feeding the chunk any
// number of times never closes a period — the pure steady-state path.
func batchChunkRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		src := netip.AddrFrom4([4]byte{130, 216, byte(i % 7), byte(i)})
		dst := netip.AddrFrom4([4]byte{11, 0, 0, byte(i)})
		recs[i] = trace.Record{
			Ts:   10 * time.Second,
			Kind: packet.KindSYN,
			Dir:  trace.DirOut,
			Src:  src,
			Dst:  dst,
		}
		if i%3 == 0 {
			recs[i].Kind = packet.KindSYNACK
			recs[i].Dir = trace.DirIn
			recs[i].Src, recs[i].Dst = dst, src
		}
	}
	return recs
}

// TestBatchPathAllocs pins the batch pipeline's zero-allocation
// contract end to end: a chunk refill, FeedBatch through the
// aggregator, and the keyed tracker's batch tap (multi-shard, so the
// per-shard grouping scratch is exercised) must allocate nothing once
// warm.
func TestBatchPathAllocs(t *testing.T) {
	recs := batchChunkRecords(DefaultChunk)
	det, err := NewAgentDetector(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := sourcetrack.New(sourcetrack.Config{
		KeyBits: 24,
		Shards:  2,
		Agent:   core.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(20*time.Second, time.Hour, det, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg.SetTap(tracker)
	buf := make([]trace.Record, DefaultChunk)

	feed := func() {
		n := copy(buf, recs)
		if err := agg.FeedBatch(buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: admit the keys and grow the tracker's grouping scratch.
	feed()

	allocs := testing.AllocsPerRun(10, feed)
	if allocs != 0 {
		t.Errorf("steady-state batch feed allocated %.1f times per %d-record chunk, want 0",
			allocs, len(recs))
	}
}

// TestChanSourceDropMode pins the backpressure-shedding contract: a
// full drop-mode buffer sheds and counts instead of blocking, and the
// blocking constructor never drops.
func TestChanSourceDropMode(t *testing.T) {
	s := NewChanSourceDrop(2)
	for i := 0; i < 5; i++ {
		s.Send(trace.Record{Ts: time.Duration(i)})
	}
	if got := s.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3 (buffer of 2, 5 sends)", got)
	}
	s.CloseSend()
	var buf [8]trace.Record
	n, err := s.NextBatch(buf[:])
	if n != 2 {
		t.Errorf("NextBatch kept %d records, want the 2 buffered", n)
	}
	if err == nil {
		// EOF may arrive with the data (EOF-mid-chunk) or on the next call.
		_, err = s.NextBatch(buf[:])
	}
	if err != io.EOF {
		t.Errorf("drained drop source reported %v, want io.EOF", err)
	}

	if NewChanSource(1).Dropped() != 0 {
		t.Error("blocking source reports drops")
	}
	// The DropCounter assertion the daemon relies on.
	var src Source = s
	if _, ok := src.(DropCounter); !ok {
		t.Error("ChanSource does not implement DropCounter")
	}
}

// recordOnlyTap hides a tracker's RecordBatch so the aggregator is
// forced onto the per-record tap path — the fuzz reference side.
type recordOnlyTap struct{ tk *sourcetrack.Tracker }

func (rt recordOnlyTap) Record(r trace.Record)                    { rt.tk.Record(r) }
func (rt recordOnlyTap) ClosePeriod(index int, end time.Duration) { rt.tk.ClosePeriod(index, end) }

// fuzzRecords decodes an arbitrary byte string into a record stream:
// 4 bytes per record (signed ts delta in 100ms steps, kind, dir, host
// byte). Deliberately unclamped — negative and out-of-order timestamps
// must drive every split into the same error at the same record.
func fuzzRecords(data []byte) []trace.Record {
	recs := make([]trace.Record, 0, len(data)/4)
	ts := time.Duration(0)
	for i := 0; i+4 <= len(data); i += 4 {
		ts += time.Duration(int8(data[i])) * 100 * time.Millisecond
		kind := packet.Kind(data[i+1] % 6)
		dir := trace.DirOut
		if data[i+2]%2 == 1 {
			dir = trace.DirIn
		}
		h := data[i+3]
		src := netip.AddrFrom4([4]byte{130, 216, h, 1})
		dst := netip.AddrFrom4([4]byte{11, 0, 0, h})
		if dir == trace.DirIn {
			src, dst = dst, src
		}
		recs = append(recs, trace.Record{
			Ts: ts, Kind: kind, Dir: dir,
			Src: src, Dst: dst, SrcPort: 40000, DstPort: 80,
		})
	}
	return recs
}

func newFuzzTracker(t *testing.T) *sourcetrack.Tracker {
	t.Helper()
	tk, err := sourcetrack.New(sourcetrack.Config{
		KeyBits:    24,
		MaxSources: 8, // tiny, so eviction churn is in scope
		Shards:     1,
		Agent:      core.Config{T0: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// splitRun is one way of cutting a record stream into FeedBatch calls,
// with everything it produced.
type splitRun struct {
	det *AgentDetector
	tk  *sourcetrack.Tracker
	agg *Aggregator
	err error
}

// feedSplit feeds recs through a fresh aggregator in chunks whose
// lengths come from next (0 makes an empty call, then feeds one
// record), stopping at the first error, then finishes the tail. recordTap puts the tracker behind the
// per-record tap face instead of the batch face.
func feedSplit(t *testing.T, recs []trace.Record, span time.Duration, recordTap bool, next func() int) splitRun {
	t.Helper()
	const t0 = time.Second
	det, err := NewAgentDetector(core.Config{T0: t0})
	if err != nil {
		t.Fatal(err)
	}
	tk := newFuzzTracker(t)
	agg, err := NewAggregator(t0, span, det, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recordTap {
		agg.SetTap(recordOnlyTap{tk})
	} else {
		agg.SetTap(tk)
	}
	run := splitRun{det: det, tk: tk, agg: agg}
	for i := 0; i < len(recs) && run.err == nil; {
		n := next()
		if n == 0 {
			run.err = agg.FeedBatch(recs[i:i]) // must change nothing
			n = 1
		}
		j := min(i+n, len(recs))
		if run.err == nil {
			run.err = agg.FeedBatch(recs[i:j])
		}
		i = j
	}
	if run.err == nil {
		run.err = agg.Finish(0)
	}
	return run
}

// FuzzBatchMatchesRecordPath is the aggregator's split-invariance
// oracle: over arbitrary record streams (including invalid ones), cut
// into FeedBatch calls at arbitrary points (including empty calls),
// the result must match feeding one record per call through the
// per-record tap face — the same error at the same record, the same
// period reports and the same keyed tracker state.
func FuzzBatchMatchesRecordPath(f *testing.F) {
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{10, 1, 0, 1, 10, 2, 1, 1, 10, 1, 0, 2}, []byte{1})
	f.Add([]byte{100, 1, 0, 3, 0, 2, 1, 3, 50, 3, 0, 4, 50, 1, 0, 5}, []byte{3, 0, 1})
	f.Add([]byte{255, 1, 0, 1}, []byte{7})                             // negative delta: out-of-order/negative ts
	f.Add([]byte{127, 1, 0, 1, 127, 1, 0, 1, 127, 1, 0, 1}, []byte{2}) // past span
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		recs := fuzzRecords(data)
		span := 8 * time.Second

		ref := feedSplit(t, recs, span, true, func() int { return 1 })
		k := 0
		got := feedSplit(t, recs, span, false, func() int {
			if len(cuts) == 0 {
				return len(recs)
			}
			n := int(cuts[k%len(cuts)] % 33)
			k++
			return n
		})

		switch {
		case (ref.err == nil) != (got.err == nil):
			t.Fatalf("error divergence: per-record %v, split %v (cuts %v)", ref.err, got.err, cuts)
		case ref.err != nil && ref.err.Error() != got.err.Error():
			t.Fatalf("different errors:\n per-record %v\n split      %v (cuts %v)", ref.err, got.err, cuts)
		}
		if ref.agg.Records() != got.agg.Records() || ref.agg.Skipped() != got.agg.Skipped() {
			t.Fatalf("volume divergence: per-record %d/%d, split %d/%d",
				ref.agg.Records(), ref.agg.Skipped(), got.agg.Records(), got.agg.Skipped())
		}
		if r1, r2 := ref.det.Reports(), got.det.Reports(); !reflect.DeepEqual(r1, r2) {
			t.Fatalf("report divergence (cuts %v):\n per-record %+v\n split      %+v", cuts, r1, r2)
		}
		if v1, v2 := ref.tk.View(0), got.tk.View(0); !reflect.DeepEqual(v1, v2) {
			t.Fatalf("keyed state divergence (cuts %v):\n per-record %+v\n split      %+v", cuts, v1, v2)
		}
	})
}

// TestBatchMatchesRecordPathSeeds feeds a real flood trace through the
// aggregator at several fixed chunk sizes, so split invariance holds
// in plain `go test` runs too, against the independent counts
// reference.
func TestBatchMatchesRecordPathSeeds(t *testing.T) {
	tr := testTrace(t)
	want := referenceReports(t, tr)
	for _, chunk := range []int{1, 2, 7, 64, DefaultChunk, 1 << 15} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			det, err := NewAgentDetector(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			agg, err := NewAggregator(20*time.Second, tr.Span, det, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(tr.Records); i += chunk {
				if err := agg.FeedBatch(tr.Records[i:min(i+chunk, len(tr.Records))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := agg.Finish(0); err != nil {
				t.Fatal(err)
			}
			compareReports(t, det.Reports(), want)
		})
	}
}
