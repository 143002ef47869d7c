package core

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/netsim"
	"repro/internal/packet"
)

func TestNewAgentDefaults(t *testing.T) {
	a, err := NewAgent(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.Config()
	if cfg.T0 != 20*time.Second {
		t.Errorf("T0 = %v, want 20s", cfg.T0)
	}
	if cfg.Alpha != 0.9 || cfg.Offset != 0.35 || cfg.Threshold != 1.05 || cfg.MinK != 1 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(Config{T0: -time.Second}); err == nil {
		t.Error("negative T0 accepted")
	}
	if _, err := NewAgent(Config{Alpha: 1.5}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := NewAgent(Config{Offset: -1}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := NewAgent(Config{MinK: -3}); err == nil {
		t.Error("negative MinK accepted")
	}
}

func TestSnifferCountsAndDrain(t *testing.T) {
	s := NewSniffer(netsim.Outbound)
	if s.Direction() != netsim.Outbound {
		t.Error("direction lost")
	}
	kinds := []packet.Kind{
		packet.KindSYN, packet.KindSYN, packet.KindSYNACK,
		packet.KindFIN, packet.KindRST, packet.KindOther,
	}
	for _, k := range kinds {
		s.Count(k)
	}
	pc := s.Drain()
	if pc.SYN != 2 || pc.SYNACK != 1 || pc.FIN != 1 || pc.RST != 1 {
		t.Errorf("counts = %+v", pc)
	}
	if s.TotalSeen() != 6 {
		t.Errorf("TotalSeen = %d, want 6", s.TotalSeen())
	}
	// Drain resets the period counters but not the lifetime total.
	pc2 := s.Drain()
	if pc2 != (PeriodCounts{}) {
		t.Errorf("second drain = %+v, want zeros", pc2)
	}
	if s.TotalSeen() != 6 {
		t.Error("TotalSeen reset by Drain")
	}
}

// feedPeriods drives the agent with per-period (outSYN, inSYNACK)
// pairs and returns the last report.
func feedPeriods(a *Agent, pairs [][2]uint64) Report {
	var last Report
	for i, p := range pairs {
		for j := uint64(0); j < p[0]; j++ {
			a.Observe(netsim.Outbound, packet.KindSYN)
		}
		for j := uint64(0); j < p[1]; j++ {
			a.Observe(netsim.Inbound, packet.KindSYNACK)
		}
		last = a.EndPeriod(time.Duration(i+1) * a.Config().T0)
	}
	return last
}

func TestNormalTrafficKeepsStatisticAtZero(t *testing.T) {
	a, _ := NewAgent(Config{})
	pairs := make([][2]uint64, 50)
	for i := range pairs {
		pairs[i] = [2]uint64{105, 100} // small benign discrepancy
	}
	last := feedPeriods(a, pairs)
	if a.Alarmed() {
		t.Fatal("false alarm on benign traffic")
	}
	if last.Y != 0 {
		t.Errorf("yn = %v, want 0 (X=0.05 < a)", last.Y)
	}
	if math.Abs(a.KBar()-100) > 1e-6 {
		t.Errorf("K̄ = %v, want 100", a.KBar())
	}
}

func TestFloodRaisesAlarmInDesignedTime(t *testing.T) {
	a, _ := NewAgent(Config{})
	// 10 benign periods to prime K̄ at 100.
	benign := make([][2]uint64, 10)
	for i := range benign {
		benign[i] = [2]uint64{100, 100}
	}
	feedPeriods(a, benign)
	if a.Alarmed() {
		t.Fatal("premature alarm")
	}
	// Flood: +70 spoofed SYNs per period (drift h = 0.7 = 2a). The
	// designed detection time is 3 periods... the crossing requires
	// yn > 1.05, reached at the 4th flood period (4*0.35=1.4).
	flood := make([][2]uint64, 6)
	for i := range flood {
		flood[i] = [2]uint64{170, 100}
	}
	feedPeriods(a, flood)
	if !a.Alarmed() {
		t.Fatal("flood not detected")
	}
	al := a.FirstAlarm()
	if al.Period != 13 { // periods 0-9 benign; flood starts at 10; alarm at 10+3
		t.Errorf("alarm period = %d, want 13", al.Period)
	}
	// feedPeriods numbers its timestamps from its own start, so the
	// alarm lands at the 4th flood period's end: 80s into the flood.
	if al.At != 80*time.Second {
		t.Errorf("alarm at %v, want 80s", al.At)
	}
}

func TestOnAlarmFiresExactlyOnce(t *testing.T) {
	a, _ := NewAgent(Config{})
	fired := 0
	a.OnAlarm = func(Alarm) { fired++ }
	flood := make([][2]uint64, 20)
	for i := range flood {
		flood[i] = [2]uint64{200, 100}
	}
	feedPeriods(a, flood)
	if fired != 1 {
		t.Errorf("OnAlarm fired %d times, want 1", fired)
	}
}

func TestKBarUnaffectedByFlood(t *testing.T) {
	// The flood adds outgoing SYNs but no incoming SYN/ACKs, so K̄ must
	// hold its baseline — that is why normalization stays meaningful
	// during the attack.
	a, _ := NewAgent(Config{})
	benign := make([][2]uint64, 20)
	for i := range benign {
		benign[i] = [2]uint64{100, 100}
	}
	feedPeriods(a, benign)
	before := a.KBar()
	flood := make([][2]uint64, 10)
	for i := range flood {
		flood[i] = [2]uint64{5000, 100}
	}
	feedPeriods(a, flood)
	if math.Abs(a.KBar()-before) > 1e-6 {
		t.Errorf("K̄ moved from %v to %v during flood", before, a.KBar())
	}
}

func TestMinKFloorsNormalization(t *testing.T) {
	// On an idle link (zero SYN/ACKs) the normalizer must not divide
	// by zero; with MinK=1, X equals the raw SYN count.
	a, _ := NewAgent(Config{})
	r := feedPeriods(a, [][2]uint64{{5, 0}})
	if r.X != 5 {
		t.Errorf("X = %v, want 5 (Δ/MinK)", r.X)
	}
}

func TestResetClearsAlarmKeepsKBar(t *testing.T) {
	a, _ := NewAgent(Config{})
	flood := make([][2]uint64, 10)
	for i := range flood {
		flood[i] = [2]uint64{300, 100}
	}
	feedPeriods(a, flood)
	if !a.Alarmed() {
		t.Fatal("no alarm to reset")
	}
	k := a.KBar()
	a.Reset()
	if a.Alarmed() || a.FirstAlarm() != nil {
		t.Error("Reset did not clear alarm")
	}
	if a.KBar() != k {
		t.Error("Reset clobbered K̄")
	}
}

func TestStatisticsSeries(t *testing.T) {
	a, _ := NewAgent(Config{})
	feedPeriods(a, [][2]uint64{{100, 100}, {200, 100}, {300, 100}})
	ys := a.Statistics()
	if len(ys) != 3 {
		t.Fatalf("series length = %d, want 3", len(ys))
	}
	if ys[0] != 0 {
		t.Errorf("y0 = %v, want 0", ys[0])
	}
	if ys[1] <= ys[0] || ys[2] <= ys[1] {
		t.Errorf("yn not accumulating under flood: %v", ys)
	}
}

func TestWarmupSuppressesEarlyDecisions(t *testing.T) {
	a, _ := NewAgent(Config{WarmupPeriods: 5})
	// Flood-sized imbalance during warm-up must not alarm.
	for i := 0; i < 5; i++ {
		feedPeriods(a, [][2]uint64{{1000, 10}})
	}
	if a.Alarmed() {
		t.Fatal("alarm during warm-up")
	}
	for _, r := range a.Reports() {
		if r.Y != 0 || r.Alarmed {
			t.Fatalf("warm-up report fed the detector: %+v", r)
		}
	}
	// After warm-up, the same imbalance alarms promptly.
	feedPeriods(a, [][2]uint64{{1000, 10}, {1000, 10}})
	if !a.Alarmed() {
		t.Error("post-warm-up flood not detected")
	}
}

func TestDesignUsesPaperRule(t *testing.T) {
	a, _ := NewAgent(Config{})
	d := a.Design()
	if d.MinIncrease != 0.7 {
		t.Errorf("h = %v, want 2a = 0.7", d.MinIncrease)
	}
	if got := d.DetectionTime(); math.Abs(got-3) > 1e-9 {
		t.Errorf("designed detection time = %v, want 3 periods", got)
	}
}

func TestInstallOnRouterDetectsSimulatedFlood(t *testing.T) {
	// Full integration: event-driven leaf router, benign hosts priming
	// K̄, then a flooder inside the stub spraying spoofed SYNs.
	sim := eventsim.New()
	cloud := netsim.NewInternet(sim)
	stub, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix:      netip.MustParsePrefix("10.1.0.0/24"),
		Hosts:       2,
		HostDelay:   time.Millisecond,
		UplinkDelay: 5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// External responder stub: answers every SYN with a SYN/ACK.
	ext, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix:      netip.MustParsePrefix("10.9.0.0/24"),
		Hosts:       1,
		HostDelay:   time.Millisecond,
		UplinkDelay: 5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := ext.Hosts[0]
	server.OnPacket = func(_ time.Duration, s packet.Segment) {
		if s.Kind() == packet.KindSYN {
			server.Send(packet.Build(s.IP.Dst, s.IP.Src, s.TCP.DstPort, s.TCP.SrcPort,
				1, s.TCP.Seq+1, packet.FlagSYN|packet.FlagACK))
		}
	}

	agent, _ := NewAgent(Config{T0: time.Second})
	if _, err := agent.Install(sim, stub.Router); err != nil {
		t.Fatal(err)
	}

	// Benign load: host 0 opens 50 connections/second for 10 s.
	benign := stub.Hosts[0]
	for i := 0; i < 500; i++ {
		i := i
		sim.After(time.Duration(i)*20*time.Millisecond, func(time.Duration) {
			benign.Send(packet.Build(benign.Addr, server.Addr,
				uint16(10000+i%50000), 80, uint32(i), 0, packet.FlagSYN))
		})
	}
	sim.RunUntil(10 * time.Second)
	if agent.Alarmed() {
		t.Fatal("false alarm during benign phase")
	}

	// Flood: host 1 sprays 300 spoofed SYNs/second from t=10s.
	flooder := stub.Hosts[1]
	spoof := netip.MustParseAddr("203.0.113.1")
	for i := 0; i < 3000; i++ {
		i := i
		at := 10*time.Second + time.Duration(i)*time.Second/300
		sim.At(at, func(time.Duration) {
			flooder.Send(packet.Build(spoof, server.Addr,
				uint16(1024+i%60000), 80, uint32(i), 0, packet.FlagSYN))
		})
	}
	sim.RunUntil(25 * time.Second)
	if !agent.Alarmed() {
		t.Fatal("flood not detected by installed agent")
	}
	al := agent.FirstAlarm()
	if al.At < 10*time.Second || al.At > 20*time.Second {
		t.Errorf("alarm at %v, want shortly after flood onset at 10s", al.At)
	}
}

func TestConfigNormalized(t *testing.T) {
	got := Config{}.Normalized()
	want := Config{
		T0: DefaultObservationPeriod, Alpha: DefaultAlpha,
		Offset: 0.35, Threshold: 1.05, MinK: 1,
	}
	if got != want {
		t.Errorf("Normalized() = %+v, want %+v", got, want)
	}
	// Explicit values survive normalization.
	cfg := Config{T0: 10 * time.Second, Offset: 0.2, Threshold: 0.6}
	if n := cfg.Normalized(); n.T0 != 10*time.Second || n.Offset != 0.2 || n.Threshold != 0.6 {
		t.Errorf("Normalized() clobbered explicit values: %+v", n)
	}
}
