package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fusion"
)

// compareReports checks a run's reports against the reference, period
// by period, over the periods both closed. A .pcap input learns its
// span from its last record, so it may close one period fewer than the
// in-memory reference; any larger shortfall is a failure.
func compareReports(name string, got, ref []core.Report) error {
	if len(got) > len(ref) || len(got) < len(ref)-1 || len(got) == 0 {
		return fmt.Errorf("%s: closed %d periods, reference closed %d", name, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			return fmt.Errorf("%s: period %d differs from the reference:\n got %+v\nwant %+v", name, i, got[i], ref[i])
		}
	}
	return nil
}

// firstAlarm returns the index of the first alarmed report, -1 if none.
func firstAlarm(reports []core.Report) int {
	for _, r := range reports {
		if r.Alarmed {
			return r.Index
		}
	}
	return -1
}

// checkAggregate checks a single-agent run: its reports match the
// reference and its aggregate alarm fires at or after the flood onset.
func checkAggregate(fx *fixture, got []core.Report) error {
	f := fx.Files[0]
	if err := compareReports(f.Name, got, f.Reference); err != nil {
		return err
	}
	switch at := firstAlarm(got); {
	case at < 0:
		return fmt.Errorf("%s: no aggregate alarm (flood onset at period %d)", f.Name, fx.Onset)
	case at < fx.Onset:
		return fmt.Errorf("%s: aggregate alarm at period %d, before the flood onset at %d", f.Name, at, fx.Onset)
	}
	return nil
}

// checkSources checks that every truth key is alarmed in a /sources
// payload.
func checkSources(fx *fixture, p daemon.SourcesPayload) error {
	for _, want := range fx.Truth {
		found := false
		for _, s := range p.Sources {
			if s.Key.String() == want && s.Alarmed {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("truth key %s is not alarmed in /sources (%d keys listed)", want, len(p.Sources))
		}
	}
	return nil
}

// checkFleet checks a fleet run: every monitor matches its reference
// and stays below its local alarm, the fused alarm fires at or after
// onset, the flooded monitors lead the localization and every truth
// /24 is among the localized prefixes.
func checkFleet(fx *fixture, reports map[string][]core.Report, alarm *fusion.FusedPeriod, loc *fusion.Localization) error {
	for _, f := range fx.Files {
		got := reports[f.Name]
		if err := compareReports(f.Name, got, f.Reference); err != nil {
			return err
		}
		if at := firstAlarm(got); at >= 0 {
			return fmt.Errorf("%s: local alarm at period %d; the split flood must stay below every local floor", f.Name, at)
		}
	}
	switch {
	case alarm == nil:
		return fmt.Errorf("no fused alarm (flood onset at period %d)", fx.Onset)
	case alarm.Index < fx.Onset:
		return fmt.Errorf("fused alarm at period %d, before the flood onset at %d", alarm.Index, fx.Onset)
	case loc == nil:
		return fmt.Errorf("fused alarm without a localization")
	}
	if len(loc.Monitors) < len(fx.Flooded) {
		return fmt.Errorf("localized monitors %v, want %v first", loc.Monitors, fx.Flooded)
	}
	for _, m := range loc.Monitors[:len(fx.Flooded)] {
		if !slices.Contains(fx.Flooded, m) {
			return fmt.Errorf("localized monitors %v, want %v first", loc.Monitors, fx.Flooded)
		}
	}
	for _, want := range fx.Truth {
		if !slices.Contains(loc.Prefixes, want) {
			return fmt.Errorf("truth prefix %s not localized (got %v)", want, loc.Prefixes)
		}
	}
	return nil
}
