// Last mile vs first mile: the two deployment points of Figure 6
// watching the same distributed attack.
//
// A DDoS of total rate V is split evenly over A stub networks. The
// example runs:
//
//   - one first-mile SYN-dog (SYN vs SYN/ACK) inside a single
//     flooding stub, which sees only its slice fi = V/A;
//   - one last-mile agent (SYN vs FIN/RST) at the victim's router,
//     which sees the aggregate V — the same core.Agent, fed the
//     victim-side pairing trace.AggregateLastMile bins;
//   - the PPM IP-traceback fallback the last-mile defense would need
//     to actually find the sources.
//
// The printout makes the paper's §1 argument concrete: the victim side
// detects instantly but must then spend hundreds of marked packets per
// attack path to learn where the flood comes from, while the source
// side, once it detects, has already located its flooding stub.
//
// Run with: go run ./examples/lastmile
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/iptrace"
	"repro/internal/trace"
)

const (
	totalRate = 300.0 // V, SYN/s at the victim
	stubs     = 30    // A; per-stub fi = 10 SYN/s
	onset     = 20 * time.Minute
	duration  = 10 * time.Minute
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	perStub := totalRate / stubs
	fmt.Printf("distributed attack: V=%.0f SYN/s over A=%d stubs (fi=%.0f SYN/s each)\n\n",
		totalRate, stubs, perStub)

	// --- first mile: one flooding stub's SYN-dog --------------------
	profile := trace.Auckland()
	profile.Span = 40 * time.Minute
	bg, err := trace.Generate(profile, 21)
	if err != nil {
		return err
	}
	fl, err := flood.GenerateTrace(flood.Config{
		Start: onset, Duration: duration,
		Pattern: flood.Constant{PerSecond: perStub},
		Victim:  netip.MustParseAddr("11.99.99.1"), VictimPort: 80, Seed: 5,
	})
	if err != nil {
		return err
	}
	mixed := trace.Merge("stub-view", bg, fl)
	mixed.Span = bg.Span

	firstMile, err := core.NewAgent(core.Config{})
	if err != nil {
		return err
	}
	stubCounts, err := mixed.Aggregate(firstMile.Config().T0)
	if err != nil {
		return err
	}
	if err := ingest.ReplayCounts(ingest.WrapAgent(firstMile), stubCounts); err != nil {
		return err
	}
	onsetPeriod := int(onset / firstMile.Config().T0)
	fmt.Println("first-mile SYN-dog (inside one flooding stub, sees fi only):")
	if al := firstMile.FirstAlarm(); al != nil {
		fmt.Printf("  alarm at %v, %d periods after onset\n", al.At, al.Period-onsetPeriod)
		fmt.Println("  -> source located: it is THIS stub; ingress filtering can start now")
	} else {
		fmt.Println("  no alarm (fi below this site's detection floor)")
	}

	// --- last mile: victim-side agent sees the aggregate ------------
	victimView := bg.Flip() // reuse the stub's open/close mix as server traffic
	aggregate, err := flood.GenerateTrace(flood.Config{
		Start: onset, Duration: duration,
		Pattern: flood.Constant{PerSecond: totalRate},
		Victim:  netip.MustParseAddr("11.99.99.1"), VictimPort: 80, Seed: 6,
	})
	if err != nil {
		return err
	}
	victimMixed := trace.Merge("victim-view", victimView, aggregate.Flip())
	victimMixed.Span = victimView.Span

	lastMile, err := core.NewAgent(core.Config{WarmupPeriods: 10})
	if err != nil {
		return err
	}
	victimCounts, err := victimMixed.AggregateLastMile(lastMile.Config().T0)
	if err != nil {
		return err
	}
	if err := ingest.ReplayCounts(ingest.WrapAgent(lastMile), victimCounts); err != nil {
		return err
	}
	fmt.Println("\nlast-mile agent (victim router, sees aggregate V):")
	if al := lastMile.FirstAlarm(); al != nil {
		fmt.Printf("  alarm at %v, %d periods after onset\n", al.At, al.Period-onsetPeriod)
		fmt.Println("  -> but the sources are spoofed: WHO floods is still unknown")
	} else {
		fmt.Println("  no alarm (unexpected at aggregate rate)")
	}

	// --- the traceback bill the victim side now faces ---------------
	fmt.Println("\nPPM IP traceback the victim needs to find ONE source (edge sampling, p=1/25):")
	rng := rand.New(rand.NewSource(9))
	for _, hops := range []int{10, 20} {
		path, err := iptrace.LinearPath(hops)
		if err != nil {
			return err
		}
		campaign, err := iptrace.NewCampaign(path, 1.0/25, rng)
		if err != nil {
			return err
		}
		n, ok := campaign.PacketsToReconstruct(2_000_000)
		if !ok {
			return fmt.Errorf("traceback failed for %d hops", hops)
		}
		fmt.Printf("  %2d-router path: %d attack packets collected, and all %d routers must deploy marking\n",
			hops, n, hops)
	}
	fmt.Printf("  ... times %d paths (one per flooding stub), after the attack is already underway.\n", stubs)
	fmt.Println("\nconclusion: the last mile answers 'am I under attack?', the first mile answers 'from where?' for free.")
	return nil
}
