// Package metrics renders the Prometheus text exposition every HTTP
// plane in the system serves: the daemon's per-agent families, the
// supervisor's uplink counters and the fusion coordinator's gauges. It
// owns the format — TYPE/HELP headers, label sets, value formatting
// (%d for counts, %g for reals) and the fixed-bound latency histogram
// — so the byte-level contract the goldens pin lives in one place.
package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// Value is one rendered sample value.
type Value string

// Int renders an integer sample.
func Int[T ~int | ~uint64](v T) Value { return Value(fmt.Sprintf("%d", v)) }

// Float renders a real-valued sample in its shortest form.
func Float(v float64) Value { return Value(fmt.Sprintf("%g", v)) }

// Bool renders a boolean sample as 1 or 0.
func Bool(b bool) Value {
	if b {
		return "1"
	}
	return "0"
}

// Labels is a rendered label set without its braces; the empty set
// renders an unlabeled sample.
type Labels string

// Label renders the one-label set name="value".
func Label(name, value string) Labels { return Labels(name + "=" + strconv.Quote(value)) }

// With returns l extended by name="value".
func (l Labels) With(name, value string) Labels {
	if l == "" {
		return Label(name, value)
	}
	return l + "," + Label(name, value)
}

// Header writes a family's headers: HELP when help is non-empty, then
// TYPE. A family's header precedes all of its samples, exactly once.
func Header(w io.Writer, name, typ, help string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// Sample writes one sample line.
func Sample(w io.Writer, name string, l Labels, v Value) {
	if l == "" {
		fmt.Fprintf(w, "%s %s\n", name, v)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, l, v)
}

// Write writes a single-sample, unlabeled family: its TYPE header and
// its one value.
func Write(w io.Writer, name, typ string, v Value) {
	Header(w, name, typ, "")
	Sample(w, name, "", v)
}

// latencyBounds are the upper bounds (seconds) of every latency
// histogram. Period closes and checkpoint writes both live in the
// 10µs–100ms range on healthy hosts, so a decade ladder from 10µs to 1s
// separates "fine" from "disk is unhappy" without per-metric tuning.
var latencyBounds = [...]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// Histogram is a fixed-bound latency histogram: per-bound bin counts,
// the observations beyond the last bound, and a running count and sum.
// It is a plain value — copying it is taking a snapshot — and is not
// synchronized: its owner guards it like the rest of its state.
type Histogram struct {
	Bins  [len(latencyBounds)]uint64
	Over  uint64 // observations beyond the last bound (+Inf bin)
	Count uint64
	Sum   float64
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.Count++
	h.Sum += seconds
	for i, b := range latencyBounds {
		if seconds <= b {
			h.Bins[i]++
			return
		}
	}
	h.Over++
}

// WriteSamples writes the histogram's sample lines under the family
// name: cumulative le-labelled buckets, then _sum and _count, each
// carrying l. The family's Header is the caller's, written once however
// many label sets follow it.
func (h Histogram) WriteSamples(w io.Writer, name string, l Labels) {
	var cum uint64
	for i, b := range latencyBounds {
		cum += h.Bins[i]
		Sample(w, name+"_bucket", l.With("le", fmt.Sprintf("%g", b)), Int(cum))
	}
	Sample(w, name+"_bucket", l.With("le", "+Inf"), Int(cum+h.Over))
	Sample(w, name+"_sum", l, Float(h.Sum))
	Sample(w, name+"_count", l, Int(h.Count))
}
