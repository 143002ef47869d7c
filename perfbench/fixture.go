package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/evasion"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// fixtureVersion names the generator; a cached fixture from another
// version is regenerated.
const fixtureVersion = "v1"

// Workload geometry shared by generation and the checks.
const (
	t0          = core.DefaultObservationPeriod
	fleetSize   = 4
	fleetSpeed  = 1000.0 // trace seconds per wall second
	scrapeRate  = 100.0  // scrapes per second
	fleetCensor = 0.15   // uplink censoring threshold λ (see README.md)
	churnRate   = 20.0   // SpoofChurn SYN/s: one fresh /24 per SYN
)

var victim = netip.MustParseAddr("203.0.113.80")

// fixtureFile is one generated input file with the reference reports an
// in-memory ingest.Pipeline produced from the same records.
type fixtureFile struct {
	Name      string        `json:"name"`
	File      string        `json:"file"`
	Records   int           `json:"records"`
	Bytes     int64         `json:"bytes"`
	Span      time.Duration `json:"spanNanos"`
	Reference []core.Report `json:"reference"`
}

// fixture is a workload's generated inputs and ground truth.
type fixture struct {
	Version  string        `json:"version"`
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Span     time.Duration `json:"spanNanos"`
	Stub     string        `json:"stub"`
	// Onset is the index of the first period that holds flood traffic.
	Onset int `json:"onsetPeriod"`
	// Truth holds the /24 keys the checks expect to be named.
	Truth []string `json:"truth,omitempty"`
	// Flooded names the fleet monitors that carry the split flood.
	Flooded []string      `json:"flooded,omitempty"`
	Files   []fixtureFile `json:"files"`

	dir string
}

// path returns the absolute path of the fixture's i-th file.
func (fx *fixture) path(i int) string { return filepath.Join(fx.dir, fx.Files[i].File) }

// records returns the total record count over every file.
func (fx *fixture) records() int {
	n := 0
	for _, f := range fx.Files {
		n += f.Records
	}
	return n
}

// seedFor derives an independent generator seed from the workload seed
// and a label.
func seedFor(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// fixtureDirs returns the directory that holds a workload's cached
// fixtures and the one for this seed and span.
func fixtureDirs(root, workload string, seed int64, span time.Duration) (base, dir string) {
	base = filepath.Join(root, ".bench_build", "fixtures", workload)
	return base, filepath.Join(base, fmt.Sprintf("%s-seed%d-%dm", fixtureVersion, seed, int(span.Minutes())))
}

// cachedFixture returns the fixture generated in dir, nil when there is
// none from this generator version.
func cachedFixture(dir string) *fixture {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil
	}
	fx := &fixture{dir: dir}
	if err := json.Unmarshal(data, fx); err != nil || fx.Version != fixtureVersion {
		return nil
	}
	return fx
}

// loadFixture returns the workload's fixture for seed, generating it
// under root/.bench_build/fixtures when it is not cached. Only the most
// recent seed of each workload is kept on disk.
func loadFixture(root, workload string, seed int64, span time.Duration) (*fixture, error) {
	base, dir := fixtureDirs(root, workload, seed, span)
	if fx := cachedFixture(dir); fx != nil {
		return fx, nil
	}
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{Version: fixtureVersion, Workload: workload, Seed: seed, Span: span,
		Stub: trace.UNC().Prefix.String(), dir: tmp}
	var err error
	switch workload {
	case "live-pcap":
		err = genLive(fx)
	case "attrib-binary":
		err = genAttrib(fx)
	case "fleet-paced":
		err = genFleet(fx)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", workload, err)
	}
	data, err := json.Marshal(fx)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), data, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	fx.dir = dir
	return fx, nil
}

// background generates one UNC-profile monitor trace over span and
// returns it with its local floor fmin = a·K̄/t0 (Eq. 8) in SYN/s.
func background(seed int64, label string, span time.Duration) (*trace.Trace, float64, error) {
	p := trace.UNC()
	p.Span = span
	bg, err := trace.Generate(p, seedFor(seed, label))
	if err != nil {
		return nil, 0, err
	}
	counts, err := bg.Aggregate(t0)
	if err != nil {
		return nil, 0, err
	}
	var kbar float64
	for _, v := range counts.InSYNACK {
		kbar += v
	}
	kbar /= float64(counts.Periods())
	return bg, core.Config{T0: t0}.Normalized().Offset * kbar / t0.Seconds(), nil
}

// overlay merges attack traffic into tr and clips it to span.
func overlay(tr, attack *trace.Trace, span time.Duration) *trace.Trace {
	out := trace.Merge(tr.Name, tr, attack)
	out.ClipSpan(span)
	return out
}

// emit truncates timestamps to the microsecond (what classic pcap
// carries, so every input format holds the same records), computes the
// reference reports over the records in memory, and writes the file.
func (fx *fixture) emit(name, file string, tr *trace.Trace) error {
	for i := range tr.Records {
		tr.Records[i].Ts = tr.Records[i].Ts.Truncate(time.Microsecond)
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	det, err := ingest.NewAgentDetector(core.Config{T0: t0})
	if err != nil {
		return err
	}
	p := &ingest.Pipeline{Source: ingest.NewTraceSource(tr), Detector: det, T0: t0}
	if err := p.Run(); err != nil {
		return err
	}
	path := filepath.Join(fx.dir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if filepath.Ext(file) == ".pcap" {
		err = trace.WritePcap(w, tr)
	} else {
		err = trace.WriteBinary(w, tr)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fx.Files = append(fx.Files, fixtureFile{Name: name, File: file, Records: len(tr.Records),
		Bytes: st.Size(), Span: tr.Span, Reference: det.Reports()})
	return nil
}

// genLive: background plus a constant flood at 2x fmin over the second
// half, as one classic pcap byte stream.
func genLive(fx *fixture) error {
	bg, fmin, err := background(fx.Seed, "live-bg", fx.Span)
	if err != nil {
		return err
	}
	onset := fx.Span / 2
	fl, err := flood.GenerateTrace(flood.Config{Start: onset, Duration: fx.Span - onset,
		Pattern: flood.Constant{PerSecond: 2 * fmin}, Victim: victim, VictimPort: 80,
		Seed: seedFor(fx.Seed, "live-flood")})
	if err != nil {
		return err
	}
	fx.Onset = int(onset / t0)
	return fx.emit("agent", "live.pcap", overlay(bg, fl, fx.Span))
}

// genAttrib: background plus a SpoofChurn flood (a fresh /24 per SYN)
// over the second to fifth sixths, then a SingleSource flood at 2x fmin
// over the last sixth, as one binary trace.
func genAttrib(fx *fixture) error {
	bg, fmin, err := background(fx.Seed, "attrib-bg", fx.Span)
	if err != nil {
		return err
	}
	churnAt := fx.Span / 6
	churn, err := evasion.SpoofChurn(evasion.Params{Victim: victim, VictimPort: 80,
		Onset: churnAt, Duration: 2 * fx.Span / 3, T0: t0, KeyBits: 24,
		Seed: seedFor(fx.Seed, "attrib-churn")}, churnRate)
	if err != nil {
		return err
	}
	single, err := evasion.SingleSource(evasion.Params{Victim: victim, VictimPort: 80,
		Onset: 5 * fx.Span / 6, Duration: fx.Span / 6, T0: t0, KeyBits: 24,
		Seed: seedFor(fx.Seed, "attrib-single")}, 2*fmin)
	if err != nil {
		return err
	}
	fx.Onset = int(churnAt / t0)
	for _, k := range single.Truth {
		fx.Truth = append(fx.Truth, k.String())
	}
	return fx.emit("agent", "attrib.trace", overlay(overlay(bg, churn.Attack, fx.Span), single.Attack, fx.Span))
}

// fleetTruth is the spoofed /24 of the i-th flooded monitor.
func fleetTruth(i int) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i))
}

// genFleet: four UNC monitors with distinct seeds; two of them, chosen
// by the seed, carry a flood at 0.5x their own fmin over the second
// half, each spoofing its own /24.
func genFleet(fx *fixture) error {
	flooded := rand.New(rand.NewSource(seedFor(fx.Seed, "fleet-pick"))).Perm(fleetSize)[:2]
	onset := fx.Span / 2
	fx.Onset = int(onset / t0)
	for i := 0; i < fleetSize; i++ {
		name := fmt.Sprintf("unc-%d", i)
		tr, fmin, err := background(fx.Seed, "fleet-bg-"+name, fx.Span)
		if err != nil {
			return err
		}
		for j, m := range flooded {
			if m != i {
				continue
			}
			fl, err := flood.GenerateTrace(flood.Config{Start: onset, Duration: fx.Span - onset,
				Pattern: flood.Constant{PerSecond: 0.5 * fmin}, Victim: victim, VictimPort: 80,
				SpoofPrefix: fleetTruth(j), Seed: seedFor(fx.Seed, "fleet-flood-"+name)})
			if err != nil {
				return err
			}
			tr = overlay(tr, fl, fx.Span)
			fx.Flooded = append(fx.Flooded, name)
			fx.Truth = append(fx.Truth, fleetTruth(j).String())
		}
		if err := fx.emit(name, name+".pcap", tr); err != nil {
			return err
		}
	}
	return nil
}
