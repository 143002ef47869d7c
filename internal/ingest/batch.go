package ingest

import (
	"io"

	"repro/internal/trace"
)

// DefaultChunk is the record-chunk size the pipeline reads in:
// 1024 records × 48 B ≈ 48 KiB per chunk — large enough to amortize
// interface dispatch and period bookkeeping to noise, small enough to
// stay cache- and latency-friendly for live feeds.
const DefaultChunk = 1024

// BatchSource is the chunked face of a record stream: NextBatch fills
// buf with up to len(buf) records and returns how many it wrote.
// io.EOF — which may arrive together with n > 0 (EOF mid-chunk) —
// marks a clean end of stream; any other error invalidates nothing
// before buf[n]. Every source ingest.Open returns implements it
// natively; AsBatch adapts anything else.
type BatchSource interface {
	NextBatch(buf []trace.Record) (n int, err error)
	Close() error
}

// AsBatch returns src's chunked face: src itself when it is a native
// BatchSource, otherwise a thin adapter that fills each chunk through
// the single-record Next — the compatibility path for Source
// implementations outside this package.
func AsBatch(src Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &batchAdapter{src: src}
}

// batchAdapter lifts a legacy single-record Source onto the batch
// contract. The per-record interface call remains — the adapter exists
// so the rest of the pipeline has exactly one shape — but everything
// downstream of the source still runs chunk at a time.
type batchAdapter struct {
	src Source
}

func (a *batchAdapter) NextBatch(buf []trace.Record) (int, error) {
	n := 0
	for n < len(buf) {
		r, err := a.src.Next()
		if err != nil {
			return n, err
		}
		buf[n] = r
		n++
	}
	return n, nil
}

func (a *batchAdapter) Close() error { return a.src.Close() }

// DropCounter is implemented by live sources that shed records instead
// of blocking when their ring overruns (ChanSource in drop mode). The
// daemon surfaces the count in /metrics so backpressure loss is never
// silent.
type DropCounter interface {
	Dropped() uint64
}

// drain pulls src dry through the batch interface into agg, reusing
// one chunk buffer.
func drain(src BatchSource, agg *Aggregator) error {
	buf := make([]trace.Record, DefaultChunk)
	for {
		n, err := src.NextBatch(buf)
		if n > 0 {
			if ferr := agg.FeedBatch(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
