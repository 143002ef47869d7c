package core_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/trace"
)

// TestProcessCountsMatchesProcessTrace pins the counts replay's core
// contract on every site profile: aggregating a trace and replaying
// the counts produces exactly the reports a record-level replay does.
func TestProcessCountsMatchesProcessTrace(t *testing.T) {
	for _, p := range trace.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			p.Span = 10 * time.Minute
			tr, err := trace.Generate(p, 29)
			if err != nil {
				t.Fatal(err)
			}
			ref := newAgent(t, core.Config{})
			want, err := processTrace(ref, tr)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := tr.Aggregate(ref.Config().T0)
			if err != nil {
				t.Fatal(err)
			}
			fast := newAgent(t, core.Config{})
			got, err := processCounts(fast, pc)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, got, want)
			if fast.KBar() != ref.KBar() || fast.Alarmed() != ref.Alarmed() {
				t.Errorf("final state (K=%v alarmed=%v), want (K=%v alarmed=%v)",
					fast.KBar(), fast.Alarmed(), ref.KBar(), ref.Alarmed())
			}
		})
	}
}

// lastMileRecords maps a victim-side trace onto the pairing the agent
// counts: incoming SYNs (openings) become outgoing SYNs and outgoing
// FINs/RSTs (closings) become incoming SYN/ACKs; everything else is
// dropped. Replaying the result record by record is the reference the
// AggregateLastMile counts are pinned against.
func lastMileRecords(tr *trace.Trace) *trace.Trace {
	out := &trace.Trace{Name: tr.Name + "-lastmile", Span: tr.Span}
	for _, r := range tr.Records {
		switch {
		case r.Dir == trace.DirIn && r.Kind == packet.KindSYN:
			out.Records = append(out.Records, trace.Record{Ts: r.Ts, Kind: packet.KindSYN, Dir: trace.DirOut})
		case r.Dir == trace.DirOut && (r.Kind == packet.KindFIN || r.Kind == packet.KindRST):
			out.Records = append(out.Records, trace.Record{Ts: r.Ts, Kind: packet.KindSYNACK, Dir: trace.DirIn})
		}
	}
	return out
}

// TestLastMileProcessCountsMatchesProcessTrace does the same for the
// victim-side pairing: AggregateLastMile counts replayed into an agent
// equal a record-level replay of the openings and closings.
func TestLastMileProcessCountsMatchesProcessTrace(t *testing.T) {
	p := trace.Auckland()
	p.Span = 10 * time.Minute
	bg, err := trace.Generate(p, 31)
	if err != nil {
		t.Fatal(err)
	}
	victim := bg.Flip()

	cfg := core.Config{WarmupPeriods: 3}
	want, err := processTrace(newAgent(t, cfg), lastMileRecords(victim))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := victim.AggregateLastMile(core.DefaultObservationPeriod)
	if err != nil {
		t.Fatal(err)
	}
	got, err := processCounts(newAgent(t, cfg), pc)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, got, want)
}

// truncateCounts returns the first k periods of pc, sharing storage
// (the counts replay never mutates its input).
func truncateCounts(pc *trace.PeriodCounts, k int) *trace.PeriodCounts {
	return &trace.PeriodCounts{T0: pc.T0, OutSYN: pc.OutSYN[:k], InSYNACK: pc.InSYNACK[:k]}
}

// TestProcessCountsResumeEquivalence is the property test behind the
// daemon's resume story on the counts replay: snapshot after a random
// number of periods, restore, finish from the full counts — the final
// serialized snapshot must be byte-identical to an uninterrupted run's.
func TestProcessCountsResumeEquivalence(t *testing.T) {
	p := trace.UNC()
	p.Span = 10 * time.Minute
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		tr, err := trace.Generate(p, int64(100+trial))
		if err != nil {
			t.Fatal(err)
		}
		pc, err := tr.Aggregate(core.DefaultObservationPeriod)
		if err != nil {
			t.Fatal(err)
		}

		ref := newAgent(t, core.Config{})
		if _, err := processCounts(ref, pc); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ref.WriteSnapshot(&want); err != nil {
			t.Fatal(err)
		}

		k := rng.Intn(pc.Periods() + 1)
		a1 := newAgent(t, core.Config{})
		if k > 0 {
			if _, err := processCounts(a1, truncateCounts(pc, k)); err != nil {
				t.Fatal(err)
			}
		}
		a2, err := core.RestoreAgent(a1.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := processCounts(a2, pc); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := a2.WriteSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("trial %d (k=%d): resumed snapshot differs from uninterrupted run:\n%s\nvs\n%s",
				trial, k, got.String(), want.String())
		}
	}
}

// TestProcessCountsMixedResume crosses the two replays mid-stream:
// half the trace record by record, snapshot, then the rest from counts.
func TestProcessCountsMixedResume(t *testing.T) {
	p := trace.Auckland()
	p.Span = 8 * time.Minute
	tr, err := trace.Generate(p, 57)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(core.DefaultObservationPeriod)
	if err != nil {
		t.Fatal(err)
	}
	want, err := processCounts(newAgent(t, core.Config{}), pc)
	if err != nil {
		t.Fatal(err)
	}

	half := time.Duration(pc.Periods()/2) * core.DefaultObservationPeriod
	a1 := newAgent(t, core.Config{})
	if _, err := processTrace(a1, truncateTrace(tr, half)); err != nil {
		t.Fatal(err)
	}
	a2, err := core.RestoreAgent(a1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := processCounts(a2, pc)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, got, want)
}

func TestProcessCountsFullHistoryIsNoop(t *testing.T) {
	p := trace.Auckland()
	p.Span = 4 * time.Minute
	tr, err := trace.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(core.DefaultObservationPeriod)
	if err != nil {
		t.Fatal(err)
	}
	a := newAgent(t, core.Config{})
	first, err := processCounts(a, pc)
	if err != nil {
		t.Fatal(err)
	}
	n := len(first)
	again, err := processCounts(a, pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != n {
		t.Errorf("second replay grew reports %d -> %d (double count)", n, len(again))
	}
}

func TestProcessCountsValidation(t *testing.T) {
	a := newAgent(t, core.Config{})
	if _, err := processCounts(a, nil); err == nil {
		t.Error("nil counts accepted")
	}
	if _, err := processCounts(a, &trace.PeriodCounts{T0: core.DefaultObservationPeriod}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := processCounts(a, &trace.PeriodCounts{
		T0: time.Second, OutSYN: []float64{1}, InSYNACK: []float64{1},
	}); err == nil {
		t.Error("mismatched T0 accepted")
	}
	if _, err := processCounts(a, &trace.PeriodCounts{
		T0: core.DefaultObservationPeriod, OutSYN: []float64{1, 2}, InSYNACK: []float64{1},
	}); err == nil {
		t.Error("misaligned slices accepted")
	}
	for _, bad := range []float64{-1, 0.5, 1 << 60} {
		if _, err := processCounts(a, &trace.PeriodCounts{
			T0: core.DefaultObservationPeriod, OutSYN: []float64{bad}, InSYNACK: []float64{0},
		}); err == nil {
			t.Errorf("non-count OutSYN %v accepted", bad)
		}
	}
	if len(a.Reports()) != 0 {
		t.Errorf("rejected inputs still appended %d reports", len(a.Reports()))
	}
}

// TestRestartMatchesFresh pins the sweep-pooling contract: an agent
// Restarted after a full (alarming) run is indistinguishable from a
// freshly constructed one — reports, final state and serialized
// snapshot alike.
func TestRestartMatchesFresh(t *testing.T) {
	for _, cfg := range []core.Config{{}, {WarmupPeriods: 3, Alpha: 0.8}} {
		p := trace.UNC()
		p.Span = 8 * time.Minute
		first, err := trace.Generate(p, 61)
		if err != nil {
			t.Fatal(err)
		}
		firstPC, err := first.Aggregate(core.DefaultObservationPeriod)
		if err != nil {
			t.Fatal(err)
		}
		// Push the first run into an alarm, so Restart has a latched
		// detector, a primed EWMA and a recorded alarm to clear.
		for i := range firstPC.OutSYN {
			if i >= firstPC.Periods()/2 {
				firstPC.OutSYN[i] += 5000
			}
		}
		second, err := trace.Generate(p, 62)
		if err != nil {
			t.Fatal(err)
		}
		secondPC, err := second.Aggregate(core.DefaultObservationPeriod)
		if err != nil {
			t.Fatal(err)
		}

		reused := newAgent(t, cfg)
		if _, err := processCounts(reused, firstPC); err != nil {
			t.Fatal(err)
		}
		if !reused.Alarmed() {
			t.Fatal("first run did not alarm; Restart not exercised")
		}
		reused.Restart()
		got, err := processCounts(reused, secondPC)
		if err != nil {
			t.Fatal(err)
		}

		fresh := newAgent(t, cfg)
		want, err := processCounts(fresh, secondPC)
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, got, want)
		var gotSnap, wantSnap bytes.Buffer
		if err := reused.WriteSnapshot(&gotSnap); err != nil {
			t.Fatal(err)
		}
		if err := fresh.WriteSnapshot(&wantSnap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotSnap.Bytes(), wantSnap.Bytes()) {
			t.Errorf("restarted snapshot differs from fresh:\n%s\nvs\n%s", gotSnap.String(), wantSnap.String())
		}
	}
}

// FuzzProcessCountsMatchesProcessTrace hammers the equivalence with
// arbitrary record streams: whatever trace the fuzzer builds, the
// record pipeline must replay it exactly as the counts replay of
// tr.Aggregate does — and, for the victim-side pairing, the pipeline
// over the mapped openings/closings exactly as the counts replay of
// tr.AggregateLastMile does — including records landing exactly on
// period boundaries.
func FuzzProcessCountsMatchesProcessTrace(f *testing.F) {
	f.Add(uint8(3), []byte{0x00, 0x21, 0x9f, 0x44, 0xe2})
	f.Add(uint8(1), []byte{0xff, 0xff})
	f.Add(uint8(12), []byte{0x10, 0x30, 0x50, 0x70, 0x90, 0xb0, 0xd0, 0xf0})
	f.Fuzz(func(t *testing.T, nPeriods uint8, data []byte) {
		t0 := time.Second
		span := time.Duration(int(nPeriods%20)+1) * t0
		kinds := [4]packet.Kind{packet.KindSYN, packet.KindSYNACK, packet.KindFIN, packet.KindRST}
		var recs []trace.Record
		ts := time.Duration(0)
		for _, b := range data {
			// Steps are multiples of t0/16, so timestamps regularly land
			// exactly on period boundaries — the sharpest corner of the
			// binning semantics.
			ts += time.Duration(b&0x1f) * (t0 / 16)
			if ts >= span {
				break
			}
			dir := trace.DirOut
			if b&0x80 != 0 {
				dir = trace.DirIn
			}
			recs = append(recs, trace.Record{Ts: ts, Kind: kinds[(b>>5)&3], Dir: dir})
		}
		tr := &trace.Trace{Name: "fuzz", Span: span, Records: recs}
		cfg := core.Config{T0: t0}

		for _, pairing := range []struct {
			name      string
			records   *trace.Trace
			aggregate func(time.Duration) (*trace.PeriodCounts, error)
		}{
			{"first-mile", tr, tr.Aggregate},
			{"last-mile", lastMileRecords(tr), tr.AggregateLastMile},
		} {
			ref := newAgent(t, cfg)
			want, err := processTrace(ref, pairing.records)
			if err != nil {
				t.Fatalf("%s pipeline: %v", pairing.name, err)
			}
			pc, err := pairing.aggregate(t0)
			if err != nil {
				t.Fatalf("%s aggregate: %v", pairing.name, err)
			}
			fast := newAgent(t, cfg)
			got, err := processCounts(fast, pc)
			if err != nil {
				t.Fatalf("%s counts replay: %v", pairing.name, err)
			}
			compareReports(t, got, want)
			if fast.KBar() != ref.KBar() || fast.Alarmed() != ref.Alarmed() {
				t.Fatalf("%s: final state diverged: (K=%v alarmed=%v) vs (K=%v alarmed=%v)",
					pairing.name, fast.KBar(), fast.Alarmed(), ref.KBar(), ref.Alarmed())
			}
		}
	})
}
