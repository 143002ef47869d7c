package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMetric is the heap the last GC marked live. Unlike the bytes
// objects occupy between collections, it does not depend on where in
// its cycle the collector happens to be when a sample lands, so a
// replay's peak repeats from run to run.
const heapMetric = "/gc/heap/live:bytes"

// heapSampleEvery is the heap sampling interval. A 1 ms ticker slowed
// the live-pcap replay by about 10%: its wakeups land between the
// capture reader and the aggregator on two CPUs.
const heapSampleEvery = 10 * time.Millisecond

// heapSampler samples the live heap every heapSampleEvery while it
// runs, and once more after a final collection.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64 // MB
}

// startHeapSampler collects garbage left by earlier phases, so the
// samples belong to the phase being measured, and starts sampling.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.sample()
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	h.mu.Lock()
	h.samples = append(h.samples, float64(s[0].Value.Uint64())/1e6)
	h.mu.Unlock()
}

// finish collects garbage, so the heap still held at the end counts,
// stops sampling and returns the phase's peak in MB: the 90th
// percentile of the samples. A plain maximum also catches the
// collections that happen to land while a scrape or an uplink batch
// holds a transient buffer; on the fleet that moved it by 25% from
// replay to replay, where the 90th percentile moved by 4%.
func (h *heapSampler) finish() float64 {
	runtime.GC()
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.samples, 0.9)
}

// goStats is a snapshot of the Go runtime counters the per-layer run
// reports as deltas.
type goStats struct {
	gcCycles  uint64
	pauseSec  float64
	allocByte uint64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	g := goStats{gcCycles: s[0].Value.Uint64(), allocByte: s[2].Value.Uint64()}
	// The pause histogram has no sum; bucket midpoints bound it closely
	// enough for a per-run total.
	h := s[1].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		g.pauseSec += float64(c) * (lo + hi) / 2
	}
	return g
}

// sub returns the counters accumulated since base.
func (g goStats) sub(base goStats) goStats {
	return goStats{
		gcCycles:  g.gcCycles - base.gcCycles,
		pauseSec:  g.pauseSec - base.pauseSec,
		allocByte: g.allocByte - base.allocByte,
	}
}

// ms and us convert durations to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
