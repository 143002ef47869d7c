package core_test

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/packet"
	"repro/internal/trace"
)

// The agent is driven by two replays, both in internal/ingest: the
// record replay (ingest.Pipeline, labelled ProcessTrace in test names)
// bins records into periods, and the counts replay
// (ingest.ReplayCounts, labelled ProcessCounts) feeds pre-aggregated
// per-period counts. These tests pin what the agent sees through each.

// processTrace streams tr through the ingest pipeline into a and
// returns the agent's reports.
func processTrace(a *core.Agent, tr *trace.Trace) ([]core.Report, error) {
	p := &ingest.Pipeline{
		Source:   ingest.NewTraceSource(tr),
		Detector: ingest.WrapAgent(a),
		T0:       a.Config().T0,
	}
	err := p.Run()
	return a.Reports(), err
}

// processCounts replays per-period counts into a and returns the
// agent's reports.
func processCounts(a *core.Agent, pc *trace.PeriodCounts) ([]core.Report, error) {
	err := ingest.ReplayCounts(ingest.WrapAgent(a), pc)
	return a.Reports(), err
}

func newAgent(t testing.TB, cfg core.Config) *core.Agent {
	t.Helper()
	a, err := core.NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func compareReports(t testing.TB, got, want []core.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d reports, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("report %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// truncateTrace returns the prefix of tr before span — what an agent
// saw of the trace when it stopped at that point.
func truncateTrace(tr *trace.Trace, span time.Duration) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, Span: span}
	for _, r := range tr.Records {
		if r.Ts < span {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

func TestProcessTraceCountsOnlyRelevantRecords(t *testing.T) {
	inside := netip.MustParseAddr("152.2.0.1")
	outside := netip.MustParseAddr("11.0.0.1")
	mk := func(ts time.Duration, kind packet.Kind, dir trace.Direction) trace.Record {
		return trace.Record{Ts: ts, Kind: kind, Dir: dir, Src: inside, Dst: outside}
	}
	tr := &trace.Trace{Name: "t", Span: time.Minute, Records: []trace.Record{
		mk(time.Second, packet.KindSYN, trace.DirOut),
		mk(2*time.Second, packet.KindSYN, trace.DirOut),
		mk(3*time.Second, packet.KindSYNACK, trace.DirIn),
		mk(4*time.Second, packet.KindSYN, trace.DirIn),     // inbound SYN: not counted
		mk(5*time.Second, packet.KindSYNACK, trace.DirOut), // outbound SYN/ACK: not counted
		mk(25*time.Second, packet.KindSYN, trace.DirOut),
		mk(45*time.Second, packet.KindSYNACK, trace.DirIn),
	}}
	reports, err := processTrace(newAgent(t, core.Config{}), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	if reports[0].OutSYN != 2 || reports[0].InSYNACK != 1 {
		t.Errorf("period 0 = %d/%d, want 2/1", reports[0].OutSYN, reports[0].InSYNACK)
	}
	if reports[1].OutSYN != 1 || reports[1].InSYNACK != 0 {
		t.Errorf("period 1 = %d/%d, want 1/0", reports[1].OutSYN, reports[1].InSYNACK)
	}
	if reports[2].OutSYN != 0 || reports[2].InSYNACK != 1 {
		t.Errorf("period 2 = %d/%d, want 0/1", reports[2].OutSYN, reports[2].InSYNACK)
	}
}

func TestProcessTraceMatchesAggregate(t *testing.T) {
	p := trace.Auckland()
	p.Span = 10 * time.Minute
	tr, err := trace.Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := processTrace(newAgent(t, core.Config{}), tr)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != pc.Periods() {
		t.Fatalf("periods: agent %d vs aggregate %d", len(reports), pc.Periods())
	}
	for i, r := range reports {
		if float64(r.OutSYN) != pc.OutSYN[i] {
			t.Errorf("period %d OutSYN: agent %d vs aggregate %v", i, r.OutSYN, pc.OutSYN[i])
		}
		if float64(r.InSYNACK) != pc.InSYNACK[i] {
			t.Errorf("period %d InSYNACK: agent %d vs aggregate %v", i, r.InSYNACK, pc.InSYNACK[i])
		}
	}
}

func TestProcessTraceValidation(t *testing.T) {
	a := newAgent(t, core.Config{})
	if _, err := processTrace(a, &trace.Trace{}); err == nil {
		t.Error("spanless trace accepted")
	}
	if _, err := processTrace(a, &trace.Trace{Span: time.Second}); err == nil {
		t.Error("too-short trace accepted")
	}
	bad := &trace.Trace{Span: time.Minute, Records: []trace.Record{
		{Ts: 5 * time.Second}, {Ts: time.Second},
	}}
	if _, err := processTrace(a, bad); err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestNoFalseAlarmOnGeneratedTraces(t *testing.T) {
	// Figure 5's claim: on normal background traffic yn is mostly zero
	// and never approaches N = 1.05, so no false alarms.
	for _, p := range trace.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			p.Span = 10 * time.Minute
			tr, err := trace.Generate(p, 23)
			if err != nil {
				t.Fatal(err)
			}
			a := newAgent(t, core.Config{})
			if _, err := processTrace(a, tr); err != nil {
				t.Fatal(err)
			}
			if a.Alarmed() {
				t.Errorf("%s: false alarm on normal traffic", p.Name)
			}
		})
	}
}

// TestProcessTraceResumeEquivalence pins the resume contract: snapshot
// after k periods, restore, finish the full trace — the report series,
// alarm and K-bar must match a single uninterrupted run exactly.
func TestProcessTraceResumeEquivalence(t *testing.T) {
	p := trace.Auckland()
	p.Span = 10 * time.Minute
	tr, err := trace.Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}

	ref := newAgent(t, core.Config{})
	want, err := processTrace(ref, tr)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, 1, 13, 29, 30} {
		a1 := newAgent(t, core.Config{})
		if k > 0 {
			if _, err := processTrace(a1, truncateTrace(tr, time.Duration(k)*20*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		a2, err := core.RestoreAgent(a1.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got, err := processTrace(a2, tr)
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, got, want)
		if a2.KBar() != ref.KBar() {
			t.Errorf("k=%d: K-bar %v, want %v", k, a2.KBar(), ref.KBar())
		}
		if a2.Alarmed() != ref.Alarmed() {
			t.Errorf("k=%d: alarmed %v, want %v", k, a2.Alarmed(), ref.Alarmed())
		}
	}
}

// TestProcessTraceFullHistoryIsNoop: an agent whose history already
// covers the trace must not append anything on a second replay.
func TestProcessTraceFullHistoryIsNoop(t *testing.T) {
	p := trace.Auckland()
	p.Span = 4 * time.Minute
	tr, err := trace.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := newAgent(t, core.Config{})
	first, err := processTrace(a, tr)
	if err != nil {
		t.Fatal(err)
	}
	n := len(first)
	again, err := processTrace(a, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != n {
		t.Errorf("second replay grew reports %d -> %d (double count)", n, len(again))
	}
}
