package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// recordRun is the record-level reference for Run: materialize the
// flood as spoofed-source records, merge them into the background,
// clip to the background span and stream every record through the
// ingest pipeline — the Figure 6 pipeline verbatim.
func recordRun(t *testing.T, cfg RunConfig) RunResult {
	t.Helper()
	floodCfg, err := cfg.floodConfig()
	if err != nil {
		t.Fatal(err)
	}
	bg := cfg.Background
	if bg == nil {
		if bg, err = trace.Generate(cfg.Profile, cfg.Seed); err != nil {
			t.Fatal(err)
		}
	}
	fl, err := flood.GenerateTrace(floodCfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := trace.Merge(bg.Name+"+flood", bg, fl)
	if mixed.Span > bg.Span {
		mixed.ClipSpan(bg.Span)
	}
	agent, err := core.NewAgent(cfg.Agent)
	if err != nil {
		t.Fatal(err)
	}
	p := &ingest.Pipeline{
		Source:   ingest.NewTraceSource(mixed),
		Detector: ingest.WrapAgent(agent),
		T0:       agent.Config().T0,
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return resultFromAgent(agent, cfg, true)
}

// equalRunResults compares two RunResults field by field, including
// the full per-period series.
func equalRunResults(t *testing.T, got, want RunResult) {
	t.Helper()
	if got.Detected != want.Detected || got.DetectionPeriods != want.DetectionPeriods ||
		got.AlarmPeriod != want.AlarmPeriod || got.OnsetPeriod != want.OnsetPeriod ||
		got.FalseAlarm != want.FalseAlarm {
		t.Errorf("scalar results diverge:\ncounts: %+v\nrecord: %+v", got, want)
	}
	if len(got.Statistic) != len(want.Statistic) || len(got.X) != len(want.X) {
		t.Fatalf("series lengths diverge: yn %d vs %d, X %d vs %d",
			len(got.Statistic), len(want.Statistic), len(got.X), len(want.X))
	}
	for i := range got.Statistic {
		if got.Statistic[i] != want.Statistic[i] {
			t.Fatalf("yn[%d] = %v (counts) vs %v (record)", i, got.Statistic[i], want.Statistic[i])
		}
	}
	for i := range got.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("X[%d] = %v (counts) vs %v (record)", i, got.X[i], want.X[i])
		}
	}
}

// TestRunCrossPathIdentical is the Run-level equivalence matrix: every
// site profile, two rates, random onsets and two seeds, Run's counts
// replay against the record-level reference. Floods regularly outlast
// the 12-minute background, so the span-clip semantics are covered
// too.
func TestRunCrossPathIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, p := range trace.Profiles() {
		p := p
		p.Span = 12 * time.Minute
		for _, rate := range []float64{5, 40} {
			for _, seed := range []int64{3, 11} {
				onset := 2*time.Minute + time.Duration(rng.Int63n(int64(4*time.Minute)))
				cfg := RunConfig{
					Profile:       p,
					Agent:         core.Config{},
					Rate:          rate,
					Onset:         onset,
					FloodDuration: 10 * time.Minute,
					Seed:          seed,
				}
				t.Run(fmt.Sprintf("%s/fi=%v/seed=%d", p.Name, rate, seed), func(t *testing.T) {
					fast, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					equalRunResults(t, fast, recordRun(t, cfg))
				})
			}
		}
	}
}

// TestRunCrossPathPatterns extends the equivalence to the non-constant
// flood patterns, whose arrival times come from the thinning RNG: the
// binned counts and the materialized records must carry the identical
// arrival process.
func TestRunCrossPathPatterns(t *testing.T) {
	p := trace.Auckland()
	p.Span = 15 * time.Minute
	patterns := map[string]flood.Pattern{
		"bursty":  flood.Bursty{PeakRate: 16, On: 30 * time.Second, Off: 30 * time.Second},
		"pulsing": flood.Pulsing{PeakRate: 24, On: 10 * time.Second, Off: 30 * time.Second},
		"ramp":    flood.Ramp{StartRate: 0, EndRate: 16, Span: 5 * time.Minute},
	}
	for name, pat := range patterns {
		pat := pat
		t.Run(name, func(t *testing.T) {
			cfg := RunConfig{
				Profile:       p,
				Agent:         core.Config{},
				Pattern:       pat,
				Onset:         4 * time.Minute,
				FloodDuration: 8 * time.Minute,
				Seed:          21,
			}
			fast, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			equalRunResults(t, fast, recordRun(t, cfg))
		})
	}
}

// TestSweepCrossPathSharedCounts pins that the shared-counts sweep (one
// Aggregate, AddFlood overlays per cell on pooled Runners) equals a
// sweep whose every cell is the record-level reference, with the same
// per-cell onset and seed derivation.
func TestSweepCrossPathSharedCounts(t *testing.T) {
	p := trace.UNC()
	p.Span = 15 * time.Minute
	cfg := SweepConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rates:         []float64{40, 80},
		Runs:          2,
		OnsetMin:      2 * time.Minute,
		OnsetMax:      4 * time.Minute,
		FloodDuration: 8 * time.Minute,
		Seed:          5,
		Parallelism:   4,
	}
	fast, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := trace.Generate(p, seedFor(cfg.Seed, "sweep-background:"+p.Name))
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(cfg.Rates) {
		t.Fatalf("%d rates, want %d", len(fast), len(cfg.Rates))
	}
	for ri, rate := range cfg.Rates {
		want := Performance{Rate: rate, Runs: cfg.Runs}
		detected, delay := 0, 0.0
		for run := 0; run < cfg.Runs; run++ {
			rng := rand.New(rand.NewSource(seedFor(cfg.Seed, "sweep-cell:"+p.Name,
				math.Float64bits(rate), uint64(run))))
			onset := cfg.OnsetMin + time.Duration(rng.Int63n(int64(cfg.OnsetMax-cfg.OnsetMin)))
			res := recordRun(t, RunConfig{
				Background:    bg,
				Agent:         cfg.Agent,
				Rate:          rate,
				Onset:         onset,
				FloodDuration: cfg.FloodDuration,
				Seed:          rng.Int63(),
			})
			switch {
			case res.FalseAlarm:
				want.FalseAlarms++
			case res.Detected:
				detected++
				delay += float64(res.DetectionPeriods)
			}
		}
		want.DetectionProb = float64(detected) / float64(cfg.Runs)
		if detected > 0 {
			want.MeanDetectionPeriods = delay / float64(detected)
		}
		if fast[ri] != want {
			t.Errorf("rate %v: counts %+v vs record %+v", rate, fast[ri], want)
		}
	}
}
