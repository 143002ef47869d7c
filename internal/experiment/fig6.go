package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// Diagram is a structural artifact: Figure 6 of the paper is the
// experiment architecture itself, so its reproduction is the harness
// diagram plus a live smoke run proving each labeled component exists
// and is wired the way the figure draws it.
type Diagram struct {
	ID    string
	Title string
	Body  string
	// Checks lists the structural assertions the smoke run verified.
	Checks []string
}

// Render writes the diagram and its verified checks.
func (d *Diagram) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n%s\n", d.ID, d.Title, d.Body)
	sb.WriteString("verified structure:\n")
	for _, c := range d.Checks {
		fmt.Fprintf(&sb, "  [x] %s\n", c)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteCSV writes the checks as CSV (the diagram has no series data).
func (d *Diagram) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "check"); err != nil {
		return err
	}
	for _, c := range d.Checks {
		if _, err := fmt.Fprintf(w, "%q\n", c); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the diagram fenced, with a check list.
func (d *Diagram) WriteMarkdown(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "**%s — %s**\n\n```\n%s\n```\n\n", d.ID, d.Title, d.Body)
	for _, c := range d.Checks {
		fmt.Fprintf(&sb, "- [x] %s\n", c)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

var (
	_ Artifact         = (*Diagram)(nil)
	_ MarkdownArtifact = (*Diagram)(nil)
)

const fig6Body = `
                      Incoming normal traffic
                    ==========================>  -----------------
    ----------------                             |  Leaf Router  |
    |  background  | ---- outgoing normal -----> |   ---------   |
    |  site trace  |                             | Last-mile /   |
    ----------------                             | First-mile    |
    ----------------                             |   Sniffers    |
    |   flooding   | ---- spoofed SYNs --------> |  (SYN-dog)    |
    |    trace     |                             -----------------
    ----------------                                     |
        trace.Merge (Figure 6 mixing)            CUSUM yn -> alarm`

// Fig6 reproduces the trace-simulation flooding-attack architecture:
// the mixing harness itself, smoke-run end to end so each box in the
// figure corresponds to a living component.
func Fig6(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	d := &Diagram{
		ID:    "fig6",
		Title: "The trace-simulation flooding attack experiment",
		Body:  fig6Body,
	}

	// Smoke-run every box: background trace, flood trace, merge, agent.
	// The two source boxes of the figure are independent generators, so
	// they run as two pool work items; the checks are appended in
	// figure order afterwards, keeping the artifact deterministic.
	p := trace.Auckland()
	p.Span = 20 * time.Minute
	var bg, fl *trace.Trace
	err := ForEach(opts.Parallelism, 2, func(i int) error {
		var err error
		if i == 0 {
			bg, err = trace.Generate(p, opts.Seed)
			return err
		}
		fl, err = flood.GenerateTrace(flood.Config{
			Start: 8 * time.Minute, Duration: 10 * time.Minute,
			Pattern: flood.Constant{PerSecond: 10},
			Victim:  victimAddr, VictimPort: 80, Seed: opts.Seed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	d.Checks = append(d.Checks,
		fmt.Sprintf("background site trace generated (%d records over %v)", len(bg.Records), bg.Span))
	d.Checks = append(d.Checks,
		fmt.Sprintf("flooding trace generated (%d spoofed SYNs)", len(fl.Records)))

	mixed := trace.Merge("fig6-mix", bg, fl)
	mixed.Span = bg.Span
	if err := mixed.Validate(); err != nil {
		return nil, err
	}
	d.Checks = append(d.Checks,
		fmt.Sprintf("traces merged chronologically (%d records)", len(mixed.Records)))

	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		return nil, err
	}
	pipe := &ingest.Pipeline{
		Source:   ingest.NewTraceSource(mixed),
		Detector: ingest.WrapAgent(agent),
		T0:       agent.Config().T0,
	}
	if err := pipe.Run(); err != nil {
		return nil, err
	}
	if !agent.Alarmed() {
		return nil, fmt.Errorf("fig6 smoke run: sniffer did not alarm on the mixed trace")
	}
	al := agent.FirstAlarm()
	d.Checks = append(d.Checks,
		fmt.Sprintf("leaf-router sniffers + CUSUM alarmed at period %d (flood onset period %d)",
			al.Period, int((8*time.Minute)/agent.Config().T0)))
	return []Artifact{d}, nil
}
