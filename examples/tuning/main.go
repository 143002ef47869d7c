// Tuning: site-specific parameter selection (Section 4.2.3, Figure 9).
//
// The paper ships universal parameters (a=0.35, N=1.05) so one
// deployment works everywhere, then notes that an operator who knows
// their site can trade margin for sensitivity: at UNC, dropping to
// a=0.2, N=0.6 cuts the detectable flood rate from ≈37 SYN/s to
// ≈15 SYN/s without new false alarms.
//
// This example makes that trade-off measurable. For a grid of (a, N)
// pairs it reports:
//
//   - the theoretical sensitivity floor fmin = a·K̄/t0 (Eq. 8),
//   - false alarms over repeated flood-free traces,
//   - whether a 15 SYN/s flood (invisible to the default parameters)
//     is detected, and how fast.
//
// Run with: go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/cusum"
	"repro/internal/experiment"
	"repro/internal/ingest"
	"repro/internal/trace"
)

const (
	floodRate  = 15 // SYN/s — between the tuned (≈11-21) and default (≈37) floors
	seeds      = 5  // flood-free traces per false-alarm check
	spanFactor = 2  // trace span = spanFactor * 15 min, keeps runtime modest
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	profile := trace.UNC()
	profile.Span = spanFactor * 15 * time.Minute

	// Estimate K̄ once from a flood-free trace so the theory columns
	// use the site's actual level.
	kBar, err := estimateKBar(profile)
	if err != nil {
		return err
	}
	fmt.Printf("site: %s-like, K-bar ≈ %.0f SYN/ACKs per 20 s\n\n", profile.Name, kBar)

	grid := []struct{ a, n float64 }{
		{0.35, 1.05}, // the paper's universal default
		{0.30, 0.90},
		{0.25, 0.75},
		{0.20, 0.60}, // the paper's UNC tuning
		{0.15, 0.45},
		{0.10, 0.30}, // aggressive: expect false alarms
	}

	fmt.Println("   a      N    fmin(SYN/s)  false-alarms  detects 15 SYN/s?  delay(t0)")
	fmt.Println("------  -----  -----------  ------------  -----------------  ---------")
	for _, g := range grid {
		design := cusum.Design{Offset: g.a, MinIncrease: 2 * g.a, Threshold: g.n}
		fmin := design.MinFloodRate(kBar, 20)

		falseAlarms, err := countFalseAlarms(profile, g.a, g.n)
		if err != nil {
			return err
		}

		res, err := experiment.Run(experiment.RunConfig{
			Profile:       profile,
			Agent:         core.Config{Offset: g.a, Threshold: g.n},
			Rate:          floodRate,
			Onset:         5 * time.Minute,
			FloodDuration: 10 * time.Minute,
			Seed:          77,
		})
		if err != nil {
			return err
		}
		detects := "no"
		delay := "-"
		if res.Detected {
			detects = "yes"
			delay = fmt.Sprintf("%d", res.DetectionPeriods)
		}
		fmt.Printf("%6.2f  %5.2f  %11.1f  %12d  %-17s  %9s\n",
			g.a, g.n, fmin, falseAlarms, detects, delay)
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - smaller a lowers the detectable flood rate (Eq. 8) but eats margin;")
	fmt.Println("  - the paper's tuned point (0.20, 0.60) detects the 15 SYN/s flood with zero")
	fmt.Println("    false alarms, while the universal default cannot see it at all;")
	fmt.Println("  - push a too low and benign burstiness starts crossing N.")
	return nil
}

// estimateKBar runs the agent over a flood-free trace and returns its
// final EWMA estimate.
func estimateKBar(p trace.Profile) (float64, error) {
	tr, err := trace.Generate(p, 1)
	if err != nil {
		return 0, err
	}
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		return 0, err
	}
	counts, err := tr.Aggregate(agent.Config().T0)
	if err != nil {
		return 0, err
	}
	if err := ingest.ReplayCounts(ingest.WrapAgent(agent), counts); err != nil {
		return 0, err
	}
	return agent.KBar(), nil
}

// countFalseAlarms replays several flood-free traces through the
// detector with the given parameters.
func countFalseAlarms(p trace.Profile, a, n float64) (int, error) {
	alarms := 0
	for seed := int64(1); seed <= seeds; seed++ {
		tr, err := trace.Generate(p, seed)
		if err != nil {
			return 0, err
		}
		agent, err := core.NewAgent(core.Config{Offset: a, Threshold: n})
		if err != nil {
			return 0, err
		}
		counts, err := tr.Aggregate(agent.Config().T0)
		if err != nil {
			return 0, err
		}
		if err := ingest.ReplayCounts(ingest.WrapAgent(agent), counts); err != nil {
			return 0, err
		}
		if agent.Alarmed() {
			alarms++
		}
	}
	return alarms, nil
}
