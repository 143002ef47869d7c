package evasion

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cusum"
	"repro/internal/ingest"
	"repro/internal/packet"
	"repro/internal/trace"
)

var testVictim = netip.MustParseAddr("11.99.99.1")

func baseParams() Params {
	return Params{
		Victim:     testVictim,
		VictimPort: 80,
		Onset:      4 * time.Minute,
		Duration:   8 * time.Minute,
		T0:         20 * time.Second,
		KeyBits:    24,
		Seed:       7,
	}
}

// binAttack bins an overlay trace into absolute per-period SYN and
// SYN/ACK counts over the given number of periods.
func binAttack(tr *trace.Trace, t0 time.Duration, periods int) (syn, synAck []float64) {
	syn = make([]float64, periods)
	synAck = make([]float64, periods)
	for _, r := range tr.Records {
		idx := int(r.Ts / t0)
		if idx < 0 || idx >= periods {
			continue
		}
		switch {
		case r.Dir == trace.DirOut && r.Kind == packet.KindSYN:
			syn[idx]++
		case r.Dir == trace.DirIn && r.Kind == packet.KindSYNACK:
			synAck[idx]++
		}
	}
	return syn, synAck
}

// agentOverBalanced runs the default agent over a synthetic balanced
// background (OutSYN = InSYNACK = kbar every period) with the attack
// overlaid, and returns the agent. This isolates the evasion margin:
// the background contributes exactly zero drift, so any alarm is the
// attack's own doing and any silence is the guarantee under test.
func agentOverBalanced(t *testing.T, sc *Scenario, t0 time.Duration, kbar float64, periods int) *core.Agent {
	t.Helper()
	syn, synAck := binAttack(sc.Attack, t0, periods)
	pc := &trace.PeriodCounts{
		T0:       t0,
		OutSYN:   make([]float64, periods),
		InSYNACK: make([]float64, periods),
	}
	for i := 0; i < periods; i++ {
		pc.OutSYN[i] = kbar + syn[i]
		pc.InSYNACK[i] = kbar + synAck[i]
	}
	agent, err := core.NewAgent(core.Config{T0: t0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.ReplayCounts(ingest.WrapAgent(agent), pc); err != nil {
		t.Fatal(err)
	}
	return agent
}

// TestPulsingUnderFminBelowFloorEveryPeriod pins the Eq. 8 evasion as
// arithmetic: for several baselines and duty fractions, every single
// observation period's flood volume lands strictly under the
// sensitivity floor fmin*t0 = a*kbar, and a detector watching the
// attack over a drift-free background never alarms.
func TestPulsingUnderFminBelowFloorEveryPeriod(t *testing.T) {
	design := cusum.DefaultDesign()
	p := baseParams()
	periods := int((p.Onset + p.Duration) / p.T0)
	for _, kbar := range []float64{50, 100, 2114} {
		for _, frac := range []float64{0.5, 0.8, 0.9} {
			sc, err := PulsingUnderFmin(p, design, kbar, frac, 10)
			if err != nil {
				t.Fatal(err)
			}
			floor := design.MinFloodRate(kbar, p.T0.Seconds()) * p.T0.Seconds()
			syn, _ := binAttack(sc.Attack, p.T0, periods)
			for i, n := range syn {
				if n >= floor {
					t.Errorf("kbar=%v frac=%v: period %d volume %v >= floor %v", kbar, frac, i, n, floor)
				}
			}
			if agent := agentOverBalanced(t, sc, p.T0, kbar, periods); agent.Alarmed() {
				t.Errorf("kbar=%v frac=%v: sub-fmin pulsing raised an alarm", kbar, frac)
			}
			if sc.MeanRate >= design.MinFloodRate(kbar, p.T0.Seconds()) {
				t.Errorf("kbar=%v frac=%v: mean rate %v not under fmin", kbar, frac, sc.MeanRate)
			}
		}
	}
}

// TestPulsingUnderDelayDrainsBetweenBursts pins the Eq. 7 evasion:
// each one-period burst accrues (burstMult-1)*a of drift — strictly
// under the threshold N — and the scheduled quiet periods fully drain
// it, so the statistic saw-tooths below N forever. The burst rate
// itself is a multiple of fmin: detectable if sustained, invisible
// when paced by the detection-delay bound.
func TestPulsingUnderDelayDrainsBetweenBursts(t *testing.T) {
	design := cusum.DefaultDesign()
	p := baseParams()
	periods := int((p.Onset + p.Duration) / p.T0)
	for _, burstMult := range []float64{2, 2.5, 3.5} {
		sc, err := PulsingUnderDelay(p, design, 100, burstMult)
		if err != nil {
			t.Fatal(err)
		}
		drift := (burstMult - 1) * design.Offset
		if drift >= design.Threshold {
			t.Fatalf("burstMult=%v: per-burst drift %v reaches threshold", burstMult, drift)
		}
		// The burst length (one period) must undercut Eq. 7's
		// detection delay for the burst's own intensity.
		if delay := design.DetectionTimeFor(burstMult * design.Offset); delay <= 1 {
			t.Fatalf("burstMult=%v: detection delay %v periods does not allow a 1-period burst", burstMult, delay)
		}
		agent := agentOverBalanced(t, sc, p.T0, 100, periods)
		if agent.Alarmed() {
			t.Errorf("burstMult=%v: delay-bounded pulsing raised an alarm", burstMult)
		}
		maxY := 0.0
		for _, y := range agent.Statistics() {
			maxY = math.Max(maxY, y)
		}
		if maxY >= design.Threshold {
			t.Errorf("burstMult=%v: statistic reached %v >= N", burstMult, maxY)
		}
		if maxY > drift+0.1 {
			t.Errorf("burstMult=%v: statistic %v exceeds single-burst drift %v — bursts are stacking", burstMult, maxY, drift)
		}
	}
}

// TestPulsingRejectsDetectableBurst pins the guard: a burst multiple
// whose one-period drift already reaches N cannot be built as a
// delay evasion.
func TestPulsingRejectsDetectableBurst(t *testing.T) {
	design := cusum.DefaultDesign() // a=0.35, N=1.05: drift >= N at mult >= 4
	if _, err := PulsingUnderDelay(baseParams(), design, 100, 4.1); err == nil {
		t.Fatal("detectable burst accepted as a delay evasion")
	}
}

// TestSlowDripSpreadsBelowPerKeyPressure pins the many-source shape:
// exactly nKeys distinct ground-truth keys, every record inside one of
// them, and per-key per-period pressure far below one SYN — no keyed
// CUSUM floor can see an individual drip.
func TestSlowDripSpreadsBelowPerKeyPressure(t *testing.T) {
	p := baseParams()
	const rate, nKeys = 8.0, 512
	sc, err := SlowDrip(p, rate, nKeys)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Truth) != nKeys {
		t.Fatalf("%d truth keys, want %d", len(sc.Truth), nKeys)
	}
	truth := sc.TruthSet()
	if len(truth) != nKeys {
		t.Fatalf("truth keys not distinct: %d unique of %d", len(truth), nKeys)
	}
	perKey := map[netip.Prefix]int{}
	for _, r := range sc.Attack.Records {
		key, err := r.Src.Prefix(p.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		if !truth[key] {
			t.Fatalf("record source %v outside the ground-truth key set", r.Src)
		}
		perKey[key]++
	}
	floodPeriods := float64(p.Duration / p.T0)
	for key, n := range perKey {
		if perPeriod := float64(n) / floodPeriods; perPeriod >= 1 {
			t.Errorf("key %v gets %.2f SYN/period — not a trickle", key, perPeriod)
		}
	}
}

// TestSpoofChurnNeverReusesKeys pins the keying defeat: every SYN
// lands in a fresh key, so no key accumulates two packets, let alone
// periods of drift.
func TestSpoofChurnNeverReusesKeys(t *testing.T) {
	p := baseParams()
	sc, err := SpoofChurn(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[netip.Prefix]bool{}
	for _, r := range sc.Attack.Records {
		key, err := r.Src.Prefix(p.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		if seen[key] {
			t.Fatalf("key %v reused", key)
		}
		seen[key] = true
	}
	if len(sc.Truth) != len(sc.Attack.Records) {
		t.Fatalf("%d truth keys for %d records", len(sc.Truth), len(sc.Attack.Records))
	}
}

// TestFlashCrowdBalancedAndSilent pins the false-positive control: the
// surge's SYNs carry matching SYN/ACKs (up to RTT straddle at period
// edges), and the detector over a drift-free background stays silent.
func TestFlashCrowdBalancedAndSilent(t *testing.T) {
	p := baseParams()
	stub := netip.MustParsePrefix("130.216.0.0/16")
	const rate = 25.0
	rtt := 200 * time.Millisecond
	sc, err := FlashCrowd(p, stub, rate, rtt)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Hostile {
		t.Fatal("flash crowd marked hostile")
	}
	if len(sc.Truth) != 0 {
		t.Fatal("flash crowd has attack truth keys")
	}
	periods := int((p.Onset + p.Duration) / p.T0)
	syn, synAck := binAttack(sc.Attack, p.T0, periods)
	straddle := math.Ceil(rate*rtt.Seconds()) + 1
	for i := range syn {
		if diff := math.Abs(syn[i] - synAck[i]); diff > straddle {
			t.Errorf("period %d: |SYN-SYNACK| = %v exceeds RTT straddle %v", i, diff, straddle)
		}
	}
	if agent := agentOverBalanced(t, sc, p.T0, 100, periods); agent.Alarmed() {
		t.Error("flash crowd raised an alarm over a drift-free background")
	}
}

// TestVictimClientsMatchTrace pins that the handshake list and the
// sniffer overlay describe the same connections.
func TestVictimClientsMatchTrace(t *testing.T) {
	p := baseParams()
	stub := netip.MustParsePrefix("130.216.0.0/16")
	tr, hs, err := VictimClients(p, stub, 1, 200*time.Millisecond, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var syns int
	for _, r := range tr.Records {
		if r.Kind == packet.KindSYN {
			if r.Dst != p.Victim || r.Dir != trace.DirOut {
				t.Fatalf("client SYN not aimed at the victim: %+v", r)
			}
			syns++
		}
	}
	if syns != len(hs) {
		t.Fatalf("%d trace SYNs for %d handshakes", syns, len(hs))
	}
	for _, h := range hs {
		if !stub.Contains(h.Src) {
			t.Fatalf("client %v outside the stub", h.Src)
		}
	}
}

// TestScenarioDeterminism pins the reproducibility contract: the same
// Params yield byte-identical record sequences for every generator.
func TestScenarioDeterminism(t *testing.T) {
	design := cusum.DefaultDesign()
	p := baseParams()
	stub := netip.MustParsePrefix("130.216.0.0/16")
	gens := map[string]func() (*Scenario, error){
		"pulse-under-fmin":  func() (*Scenario, error) { return PulsingUnderFmin(p, design, 100, 0.8, 10) },
		"pulse-under-delay": func() (*Scenario, error) { return PulsingUnderDelay(p, design, 100, 2.5) },
		"single-source":     func() (*Scenario, error) { return SingleSource(p, 12) },
		"slow-drip":         func() (*Scenario, error) { return SlowDrip(p, 8, 512) },
		"spoof-churn":       func() (*Scenario, error) { return SpoofChurn(p, 8) },
		"flash-crowd":       func() (*Scenario, error) { return FlashCrowd(p, stub, 25, 200*time.Millisecond) },
	}
	for name, gen := range gens {
		a, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Attack.Records) != len(b.Attack.Records) {
			t.Fatalf("%s: record counts differ: %d vs %d", name, len(a.Attack.Records), len(b.Attack.Records))
		}
		for i := range a.Attack.Records {
			if a.Attack.Records[i] != b.Attack.Records[i] {
				t.Fatalf("%s: record %d differs: %+v vs %+v", name, i, a.Attack.Records[i], b.Attack.Records[i])
			}
		}
	}
}

// TestParamValidation pins the constructor guards.
func TestParamValidation(t *testing.T) {
	design := cusum.DefaultDesign()
	good := baseParams()
	bad := []Params{
		{},
		{Victim: testVictim, VictimPort: 80, Duration: time.Minute, T0: 20 * time.Second},               // KeyBits 0
		{Victim: testVictim, VictimPort: 80, Duration: -time.Minute, T0: 20 * time.Second, KeyBits: 24}, // negative duration
		{Victim: testVictim, VictimPort: 80, Duration: time.Minute, KeyBits: 24},                        // T0 0
	}
	for i, p := range bad {
		if _, err := PulsingUnderFmin(p, design, 100, 0.8, 10); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if _, err := PulsingUnderFmin(good, design, 100, 1.5, 10); err == nil {
		t.Error("frac >= 1 accepted: that flood is not under fmin")
	}
	if _, err := SlowDrip(good, 8, 1<<21); err == nil {
		t.Error("key count beyond the churn space accepted")
	}
	if _, err := SpoofChurn(good, 0); err == nil {
		t.Error("zero-rate churn accepted")
	}
	if _, err := FlashCrowd(good, netip.Prefix{}, 25, time.Millisecond); err == nil {
		t.Error("invalid stub prefix accepted")
	}
	if _, _, err := VictimClients(good, netip.Prefix{}, 1, time.Millisecond, time.Minute); err == nil {
		t.Error("invalid client stub accepted")
	}
}
