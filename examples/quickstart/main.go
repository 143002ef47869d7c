// Quickstart: the smallest end-to-end SYN-dog run.
//
// It synthesizes Auckland-like background traffic, mixes in a
// 10-minute SYN flood, replays the mix through a SYN-dog agent with
// the paper's universal parameters (t0=20s, a=0.35, N=1.05), and
// prints the alarm.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Background traffic: a 40-minute Auckland-like capture
	//    (K-bar ≈ 100 SYN/ACKs per 20 s, so the detection floor is
	//    fmin = 0.35*100/20 ≈ 1.75 SYN/s).
	profile := trace.Auckland()
	profile.Span = 40 * time.Minute
	background, err := trace.Generate(profile, 42)
	if err != nil {
		return err
	}

	// 2. The attack: one flooding source in this stub network sending
	//    5 spoofed SYN/s at a victim for 10 minutes, starting at 15:00.
	attack, err := flood.GenerateTrace(flood.Config{
		Start:      15 * time.Minute,
		Duration:   10 * time.Minute,
		Pattern:    flood.Constant{PerSecond: 5},
		Victim:     netip.MustParseAddr("11.99.99.1"),
		VictimPort: 80,
		Seed:       7,
	})
	if err != nil {
		return err
	}
	mixed := trace.Merge("auckland+flood", background, attack)
	mixed.Span = background.Span

	// 3. The detector: paper-default SYN-dog.
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		return err
	}
	agent.OnAlarm = func(a core.Alarm) {
		fmt.Printf(">>> FLOODING ALARM at t=%v (period %d, yn=%.3f)\n", a.At, a.Period, a.Y)
		fmt.Println(">>> the flooding source is INSIDE this stub network — no IP traceback needed")
	}

	// 4. Stream the mix through the ingest pipeline: records are
	//    binned into t0 periods and each closed period feeds the
	//    agent's CUSUM.
	pipe := &ingest.Pipeline{
		Source:   ingest.NewTraceSource(mixed),
		Detector: ingest.WrapAgent(agent),
		T0:       agent.Config().T0,
	}
	if err := pipe.Run(); err != nil {
		return err
	}

	// 5. Report.
	fmt.Printf("\nprocessed %d observation periods (t0 = %v), K-bar = %.1f\n",
		len(agent.Reports()), agent.Config().T0, agent.KBar())
	al := agent.FirstAlarm()
	if al == nil {
		return fmt.Errorf("flood was not detected — this should not happen at 5 SYN/s")
	}
	onsetPeriod := int((15 * time.Minute) / agent.Config().T0)
	fmt.Printf("flood onset period %d, alarm period %d -> detection time %d observation periods (%v)\n",
		onsetPeriod, al.Period, al.Period-onsetPeriod,
		time.Duration(al.Period-onsetPeriod)*agent.Config().T0)
	des := agent.Design()
	fmt.Printf("theory: fmin = %.2f SYN/s, conservative detection bound = %.1f periods\n",
		des.MinFloodRate(agent.KBar(), agent.Config().T0.Seconds()),
		des.DetectionTimeFor(5*agent.Config().T0.Seconds()/agent.KBar()))
	return nil
}
