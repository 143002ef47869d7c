package experiment

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/packet"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// This file scores the detector against the victim it is supposed to
// protect: the paper argues fmin = a*Kbar/t0 is the smallest flood the
// SYN-dog can see, and that anything below it "can be tolerated by the
// victim server". The victim experiment checks both halves with a real
// kernel model — the two-queue (SYN queue + accept queue) server from
// internal/tcp — by replaying the same flood into a detection run and
// into an event-driven victim simulation, then comparing the alarm
// time against the first legitimate connection that actually fails.

// victimSite is one deployment row: a background profile plus the
// victim kernel's queue sizing. The backlogs are scaled to the site
// (a campus OC-12 server farm vs a small access link) so the victim's
// steady-state absorption rate Backlog/HalfOpenTimeout clears 2x fmin:
// at 2x the detector needs ~3 observation periods, which is about how
// long a just-overflowing queue takes to hurt, so a victim sized to
// the marginal band turns the 2x row into "no outage" and leaves the
// damaging 4x/8x floods — where detection is a period or less — to
// lose the race decisively.
type victimSite struct {
	name    string
	profile trace.Profile
	// backlog is the victim's SYN-queue capacity; acceptBacklog bounds
	// the second (accept) queue drained by the application.
	backlog       int
	acceptBacklog int
	// onset is the flood start, aligned to a period boundary so alarm
	// delay converts exactly to seconds after onset.
	onset time.Duration
}

// victimMultiples are the flood rates evaluated, as multiples of the
// site's empirical fmin. Below 1x the paper predicts silence on both
// sides (no alarm, no failure); above it the alarm must win the race.
var victimMultiples = []float64{0.5, 1, 2, 4, 8}

func victimSites(opts Options) []victimSite {
	unc := trace.UNC() // 30 min span
	auck := trace.Auckland()
	if opts.Fast {
		unc.Span = 15 * time.Minute
		auck.Span = 40 * time.Minute
	} else {
		auck.Span = 80 * time.Minute
	}
	return []victimSite{
		{name: "UNC", profile: unc, backlog: 8192, acceptBacklog: 64, onset: 5 * time.Minute},
		{name: "Auckland", profile: auck, backlog: 512, acceptBacklog: 64, onset: 15 * time.Minute},
	}
}

func victimFloodDuration(opts Options) time.Duration {
	if opts.Fast {
		return 6 * time.Minute
	}
	return 10 * time.Minute
}

// victimCell is one (site, rate) outcome: the detection side and both
// victim passes, reduced to the quantities the table and the pinned
// test consume.
type victimCell struct {
	site string
	mult float64 // rate as a multiple of fmin
	rate float64 // SYN/s
	fmin float64 // empirical a*Kbar/t0 for this site

	// Detection side.
	detected   bool
	falseAlarm bool
	alarmAfter time.Duration // alarm time after onset; -1 when silent

	// Victim side, cookies off.
	firstFail       time.Duration // first legit failure after onset; -1 when none
	synDrops        uint64        // SYN-queue overflow drops
	listenOverflows uint64        // accept-queue overflow drops
	// Victim side, tcp_syncookies=1 rerun of the same flood.
	cookies uint64 // stateless cookies sent once the SYN queue filled
}

// victimPrep is the per-site shared state: background counts for the
// detection fast path and the empirical fmin derived from a flood-free
// pass of the same detector configuration.
type victimPrep struct {
	site   victimSite
	counts *trace.PeriodCounts
	fmin   float64
}

func victimPrepare(opts Options) ([]victimPrep, error) {
	sites := victimSites(opts)
	return collect(opts.Parallelism, len(sites), func(i int) (victimPrep, error) {
		s := sites[i]
		bg, err := trace.Generate(s.profile, seedFor(opts.Seed, "victim-bg:"+s.name))
		if err != nil {
			return victimPrep{}, err
		}
		cfg := core.Config{}.Normalized()
		counts, err := bg.Aggregate(cfg.T0)
		if err != nil {
			return victimPrep{}, err
		}
		// fmin comes from the detector's own flood-free Kbar, not the
		// paper's nominal site constant: the test must hold for the
		// traffic actually generated, not the traffic the paper saw.
		agent, err := core.NewAgent(core.Config{})
		if err != nil {
			return victimPrep{}, err
		}
		if err := ingest.ReplayCounts(ingest.WrapAgent(agent), counts); err != nil {
			return victimPrep{}, err
		}
		if agent.Alarmed() {
			return victimPrep{}, fmt.Errorf("experiment: victim baseline at %s false-alarmed", s.name)
		}
		fmin := cfg.Offset * agent.KBar() / cfg.T0.Seconds()
		return victimPrep{site: s, counts: counts, fmin: fmin}, nil
	})
}

// victimOutcome is one event-driven victim pass.
type victimOutcome struct {
	firstFail time.Duration // absolute sim time; -1 when no legit attempt failed
	stats     tcp.ServerStats
}

// victimReplay drives the two-queue victim kernel with the attack SYN
// stream plus a steady stream of legitimate clients (one attempt every
// 500 ms, each a real tcp.Client with the kernel's SYN retransmission
// schedule, so a failure takes the genuine 3+6+12 s to surface).
// Spoofed attack sources are drawn from 240.0.0.0/4 and never answer
// the SYN/ACK — which is exactly how they pin down backlog entries.
func victimReplay(attack []trace.Record, site victimSite, floodDur time.Duration, cookies bool) (victimOutcome, error) {
	sim := eventsim.New()
	const rtt = 5 * time.Millisecond

	type peerKey struct {
		addr netip.Addr
		port uint16
	}
	clients := make(map[peerKey]*tcp.Client)

	var server *tcp.Server
	serverSend := func(seg packet.Segment) {
		cl, ok := clients[peerKey{addr: seg.IP.Dst, port: seg.TCP.DstPort}]
		if !ok {
			return // spoofed source: no host there to answer
		}
		sim.After(rtt, func(now time.Duration) { cl.Deliver(now, seg) })
	}
	server, err := tcp.NewServer(sim, victimAddr, 80, serverSend, tcp.ServerConfig{
		Backlog:          site.backlog,
		AcceptBacklog:    site.acceptBacklog,
		CookieOnOverflow: cookies,
		CookieSecret:     0x59_d0_9 ^ uint64(site.backlog),
	})
	if err != nil {
		return victimOutcome{}, err
	}

	out := victimOutcome{firstFail: -1}

	// Legitimate attempts start half a minute before the flood (to
	// show the healthy baseline) and run through it. SYN times are
	// strictly increasing and every failure fires at synTime + 21 s,
	// so the first OnFailed is the earliest.
	start := site.onset - 30*time.Second
	end := site.onset + floodDur
	i := 0
	for ts := start; ts < end; ts += 500 * time.Millisecond {
		addr := netip.AddrFrom4([4]byte{10, 77, byte(i >> 8), byte(i)})
		port := uint16(20000 + i)
		cl, err := tcp.NewClient(sim, addr, port, victimAddr, 80, uint32(7000+i),
			func(seg packet.Segment) {
				sim.After(rtt, func(now time.Duration) { server.Deliver(now, seg) })
			}, tcp.ClientConfig{})
		if err != nil {
			return victimOutcome{}, err
		}
		cl.OnFailed = func(now time.Duration) {
			if out.firstFail < 0 || now < out.firstFail {
				out.firstFail = now
			}
		}
		clients[peerKey{addr: addr, port: port}] = cl
		connect := cl
		if _, err := sim.At(ts, func(time.Duration) { connect.Connect() }); err != nil {
			return victimOutcome{}, err
		}
		i++
	}

	for _, r := range attack {
		if r.Kind != packet.KindSYN || r.Dst != victimAddr {
			continue
		}
		syn := packet.Build(r.Src, victimAddr, r.SrcPort, 80, 1, 0, packet.FlagSYN)
		if _, err := sim.At(r.Ts, func(now time.Duration) { server.Deliver(now, syn) }); err != nil {
			return victimOutcome{}, err
		}
	}
	sim.Run()
	out.stats = server.Stats()
	return out, nil
}

// victimCells runs the full grid: per (site, multiple) cell, one
// detection pass over the shared background counts and two victim
// passes over the identical flood realization (RunConfig and the
// replay derive the flood from the same seed, so the detector and the
// victim see the same attack).
func victimCells(opts Options) ([]victimCell, error) {
	opts.applyDefaults()
	preps, err := victimPrepare(opts)
	if err != nil {
		return nil, err
	}
	floodDur := victimFloodDuration(opts)
	n := len(preps) * len(victimMultiples)
	return collect(opts.Parallelism, n, func(i int) (victimCell, error) {
		prep := preps[i/len(victimMultiples)]
		mult := victimMultiples[i%len(victimMultiples)]
		site := prep.site
		rate := mult * prep.fmin
		seed := seedFor(opts.Seed, "victim-cell:"+site.name, math.Float64bits(mult))

		cell := victimCell{
			site: site.name, mult: mult, rate: rate, fmin: prep.fmin,
			alarmAfter: -1, firstFail: -1,
		}

		res, err := Run(RunConfig{
			Agent:            core.Config{},
			BackgroundCounts: prep.counts,
			Rate:             rate,
			Onset:            site.onset,
			FloodDuration:    floodDur,
			Seed:             seed,
		})
		if err != nil {
			return victimCell{}, err
		}
		cell.detected = res.Detected
		cell.falseAlarm = res.FalseAlarm
		if res.AlarmPeriod >= 0 && !res.FalseAlarm {
			// The alarm latches when the period closes; onset sits on a
			// period boundary, so this is exact.
			t0 := core.Config{}.Normalized().T0
			cell.alarmAfter = time.Duration(res.AlarmPeriod+1)*t0 - site.onset
		}

		// The victim passes replay the same flood realization Run used:
		// RunConfig.floodConfig derives its seed as Seed+7919.
		fl, err := flood.GenerateTrace(flood.Config{
			Start:      site.onset,
			Duration:   floodDur,
			Pattern:    flood.Constant{PerSecond: rate},
			Victim:     victimAddr,
			VictimPort: 80,
			Seed:       seed + 7919,
		})
		if err != nil {
			return victimCell{}, err
		}
		stateful, err := victimReplay(fl.Records, site, floodDur, false)
		if err != nil {
			return victimCell{}, err
		}
		if stateful.firstFail >= 0 {
			cell.firstFail = stateful.firstFail - site.onset
		}
		cell.synDrops = stateful.stats.SynDropped
		cell.listenOverflows = stateful.stats.ListenOverflows

		withCookies, err := victimReplay(fl.Records, site, floodDur, true)
		if err != nil {
			return victimCell{}, err
		}
		cell.cookies = withCookies.stats.CookieActivations
		return cell, nil
	})
}

// AblationVictim renders the race the deployment story depends on:
// does the first-mile alarm fire before the victim's first legitimate
// connection dies? Rates at and below fmin must be harmless on both
// sides; above it the alarm must come first, leaving time to trigger
// ingress filtering before users notice.
func AblationVictim(opts Options) ([]Artifact, error) {
	cells, err := victimCells(opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "victim",
		Title: "Victim two-queue model: alarm time vs first legitimate connection failure" +
			" (fmin = a*Kbar/t0, empirical per site)",
		Columns: []string{"Site", "fi/fmin", "fi (SYN/s)", "Alarm (s after onset)",
			"First legit failure (s)", "SYN-queue drops", "Listen overflows", "Cookies sent", "Alarm first?"},
	}
	for _, c := range cells {
		alarm, fail, verdict := "-", "-", "no outage"
		if c.alarmAfter >= 0 {
			alarm = fmt.Sprintf("%.0f", c.alarmAfter.Seconds())
		}
		if c.falseAlarm {
			alarm = "FALSE ALARM"
		}
		if c.firstFail >= 0 {
			fail = fmt.Sprintf("%.0f", c.firstFail.Seconds())
			if c.detected && c.alarmAfter >= 0 && c.alarmAfter < c.firstFail {
				verdict = "yes"
			} else {
				verdict = "NO"
			}
		}
		t.Rows = append(t.Rows, []string{
			c.site,
			trimFloat(c.mult),
			trimFloat(c.rate),
			alarm,
			fail,
			fmt.Sprintf("%d", c.synDrops),
			fmt.Sprintf("%d", c.listenOverflows),
			fmt.Sprintf("%d", c.cookies),
			verdict,
		})
	}
	return []Artifact{t}, nil
}
