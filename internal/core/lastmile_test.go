package core_test

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/trace"
)

// The last-mile deployment is a plain agent fed the victim-side
// pairing trace.AggregateLastMile bins: connection openings (incoming
// SYNs) against closings (outgoing FINs and RSTs).

var (
	victimAddr = netip.MustParseAddr("10.9.0.1")
	clientAddr = netip.MustParseAddr("11.0.0.1")
)

// buildVictimTrace synthesizes a 10-minute victim-side trace: balanced
// inbound SYNs / outbound FINs at 2/s for 5 minutes, then an inbound
// SYN flood at 6/s with no closes.
func buildVictimTrace() *trace.Trace {
	tr := &trace.Trace{Name: "victim", Span: 10 * time.Minute}
	add := func(ts time.Duration, kind packet.Kind, dir trace.Direction) {
		src, dst := clientAddr, victimAddr
		if dir == trace.DirOut {
			src, dst = victimAddr, clientAddr
		}
		tr.Records = append(tr.Records, trace.Record{
			Ts: ts, Kind: kind, Dir: dir, Src: src, Dst: dst, SrcPort: 9, DstPort: 80,
		})
	}
	for s := 0; s < 600; s++ {
		ts := time.Duration(s) * time.Second
		for k := 0; k < 2; k++ {
			off := time.Duration(k) * 400 * time.Millisecond
			add(ts+off, packet.KindSYN, trace.DirIn)
			add(ts+off+100*time.Millisecond, packet.KindFIN, trace.DirOut)
		}
		if s >= 300 { // flood onset at 5 minutes
			for k := 0; k < 6; k++ {
				add(ts+time.Duration(k)*150*time.Millisecond, packet.KindSYN, trace.DirIn)
			}
		}
	}
	tr.Sort()
	return tr
}

// processLastMile bins a victim-side trace into openings/closings and
// replays the counts into a.
func processLastMile(a *core.Agent, tr *trace.Trace) ([]core.Report, error) {
	pc, err := tr.AggregateLastMile(a.Config().T0)
	if err != nil {
		return nil, err
	}
	return processCounts(a, pc)
}

// feedVictimPeriods closes one period per (opening, closing) pair.
func feedVictimPeriods(a *core.Agent, pairs [][2]uint64) {
	for _, p := range pairs {
		end := time.Duration(len(a.Reports())+1) * a.Config().T0
		a.LoadPeriod(core.PeriodCounts{SYN: p[0]}, core.PeriodCounts{SYNACK: p[1]}, end)
	}
}

func TestLastMileNormalOperationQuiet(t *testing.T) {
	a := newAgent(t, core.Config{})
	pairs := make([][2]uint64, 40)
	for i := range pairs {
		pairs[i] = [2]uint64{105, 100} // opens slightly lead closes
	}
	feedVictimPeriods(a, pairs)
	if a.Alarmed() {
		t.Fatal("false alarm on balanced open/close traffic")
	}
	if a.KBar() < 99 || a.KBar() > 101 {
		t.Errorf("K̄ = %v, want ≈100", a.KBar())
	}
}

func TestLastMileDetectsAggregateFlood(t *testing.T) {
	a := newAgent(t, core.Config{})
	benign := make([][2]uint64, 10)
	for i := range benign {
		benign[i] = [2]uint64{100, 100}
	}
	feedVictimPeriods(a, benign)
	// Aggregate DDoS: +200 inbound SYNs per period never close.
	flood := make([][2]uint64, 5)
	for i := range flood {
		flood[i] = [2]uint64{300, 100}
	}
	feedVictimPeriods(a, flood)
	if !a.Alarmed() {
		t.Fatal("aggregate flood not detected at the last mile")
	}
	if al := a.FirstAlarm(); al.Period < 10 {
		t.Errorf("alarm period %d precedes the flood", al.Period)
	}
}

func TestLastMileCountsRSTsAsCloses(t *testing.T) {
	// Reset-heavy benign traffic (e.g. crawlers aborting) must not
	// accumulate: RSTs close connections too.
	tr := &trace.Trace{Name: "resets", Span: 30 * 20 * time.Second}
	for i := 0; i < 30; i++ {
		start := time.Duration(i) * 20 * time.Second
		add := func(n int, kind packet.Kind, dir trace.Direction) {
			for j := 0; j < n; j++ {
				tr.Records = append(tr.Records, trace.Record{
					Ts: start + time.Duration(j)*10*time.Millisecond, Kind: kind, Dir: dir,
				})
			}
		}
		add(100, packet.KindSYN, trace.DirIn)
		add(60, packet.KindFIN, trace.DirOut)
		add(40, packet.KindRST, trace.DirOut)
	}
	tr.Sort()
	a := newAgent(t, core.Config{})
	reports, err := processLastMile(a, tr)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].InSYNACK != 100 {
		t.Errorf("period 0 closings = %d, want 100 (60 FIN + 40 RST)", reports[0].InSYNACK)
	}
	if a.Alarmed() {
		t.Error("RST-closing traffic false-alarmed")
	}
}

func TestLastMileIgnoresIrrelevantKinds(t *testing.T) {
	// Outbound SYNs (victim's own clients), inbound FINs and SYN/ACKs
	// must not feed the detector's counters.
	tr := &trace.Trace{Name: "irrelevant", Span: 20 * time.Second}
	for j := 0; j < 500; j++ {
		ts := time.Duration(j) * 10 * time.Millisecond
		tr.Records = append(tr.Records,
			trace.Record{Ts: ts, Kind: packet.KindSYN, Dir: trace.DirOut},
			trace.Record{Ts: ts, Kind: packet.KindFIN, Dir: trace.DirIn},
			trace.Record{Ts: ts, Kind: packet.KindSYNACK, Dir: trace.DirIn})
	}
	reports, err := processLastMile(newAgent(t, core.Config{}), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r := reports[0]; r.OutSYN != 0 || r.InSYNACK != 0 {
		t.Errorf("irrelevant kinds counted: %+v", r)
	}
}

func TestLastMileProcessTrace(t *testing.T) {
	// A victim-side trace: inbound SYNs at 2/s, outbound FINs at 2/s
	// for 5 minutes, then a flood of inbound SYNs with no FINs.
	a := newAgent(t, core.Config{})
	reports, err := processLastMile(a, buildVictimTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 30 {
		t.Fatalf("periods = %d, want 30", len(reports))
	}
	if !a.Alarmed() {
		t.Fatal("trace-driven last-mile detection failed")
	}
	if al := a.FirstAlarm(); al.Period < 15 {
		t.Errorf("alarm period %d precedes flood onset period 15", al.Period)
	}
}

func TestLastMileProcessTraceValidation(t *testing.T) {
	if _, err := processLastMile(newAgent(t, core.Config{}), &trace.Trace{Name: "short", Span: time.Second}); err == nil {
		t.Error("too-short trace accepted")
	}
}

func TestFlippedFloodFeedsLastMile(t *testing.T) {
	// A source-side flood trace flipped into the victim view must
	// register as inbound SYN openings.
	src := &trace.Trace{Name: "flood", Span: time.Minute}
	for i := 0; i < 300; i++ {
		src.Records = append(src.Records, trace.Record{
			Ts: time.Duration(i) * 200 * time.Millisecond, Kind: packet.KindSYN,
			Dir: trace.DirOut, Src: clientAddr, Dst: victimAddr, DstPort: 80,
		})
	}
	a := newAgent(t, core.Config{})
	reports, err := processLastMile(a, src.Flip())
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].OutSYN == 0 {
		t.Error("flipped flood not counted as openings")
	}
	if !a.Alarmed() {
		t.Error("unanswered flood did not alarm the last mile")
	}
}

// TestLastMileResumeSkipsReportedPeriods mirrors the first-mile resume
// contract: a last-mile agent with k periods of history replays only
// the remainder of the trace.
func TestLastMileResumeSkipsReportedPeriods(t *testing.T) {
	tr := buildVictimTrace()
	want, err := processLastMile(newAgent(t, core.Config{}), tr)
	if err != nil {
		t.Fatal(err)
	}

	const k = 12
	a := newAgent(t, core.Config{})
	if _, err := processLastMile(a, truncateTrace(tr, k*20*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Reports()); got != k {
		t.Fatalf("partial run = %d periods, want %d", got, k)
	}
	got, err := processLastMile(a, tr)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, got, want)
}
