// Package sourcetrack is the per-source attribution engine: it runs
// one stateless CUSUM instance per source key, so an alarm does not
// just say "a flood left this stub network" but *which* source prefix
// it left from. The paper's agent (internal/core) is the aggregate
// special case; this package banks many of its detectors behind a
// keyed demux, the standard construction for localizing change-points
// in aggregate traffic (Lévy-Leduc & Roueff 2009, see PAPERS.md).
//
// Keying: outgoing SYNs are keyed by their source address, incoming
// SYN/ACKs by their destination address — both resolve to the inside
// host that opened the connection, masked to a configurable prefix
// width (/32 per host, /24, /16, ...). A spoofing flooder therefore
// concentrates unanswered SYNs on its key(s) while legitimate keys
// keep their SYN-SYN/ACK balance.
//
// Memory is bounded: only the top-K SYN senders (Space-Saving heavy-
// hitter sketch, Metwally et al.) hold full CUSUM state. When a new
// key arrives at capacity the minimum-count state is recycled in
// place, so the tracker allocates O(K) detector states no matter how
// many distinct sources the stream carries; evictions are counted in
// TrackerStats, never dropped silently.
//
// Concurrency: keys hash (FNV-1a) onto lock-striped shards, so live
// ingestion scales across GOMAXPROCS. Replays wanting determinism use
// Shards=1 (the default): a single-shard single-goroutine run is
// bit-identical to running one core.Agent per key over a pre-filtered
// trace — the equivalence the tests pin.
package sourcetrack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cusum"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Defaults for the keyed engine. The per-key MinK floor is higher
// than the aggregate default (1): a /24 slice of a quiet site sees
// near-zero SYN/ACKs per period, and a floor of a few packets keeps
// one retransmitted SYN from registering as a full normalized unit.
const (
	DefaultKeyBits    = 24
	DefaultMaxSources = 1024
	DefaultKeyMinK    = 10
)

// Config parameterizes a Tracker. Zero fields take defaults.
type Config struct {
	// KeyBits is the prefix width sources are masked to: 32 tracks
	// individual hosts, 24/16 aggregate (default 24). IPv6 addresses
	// keep the same host-part width (e.g. /24 keying masks v6
	// addresses to /120).
	KeyBits int
	// MaxSources is K, the number of sources holding full CUSUM state
	// (default 1024). Everything beyond K competes via Space-Saving
	// admission.
	MaxSources int
	// Shards is the lock-stripe count (default 1). One shard is the
	// deterministic replay path; live feeds pass GOMAXPROCS. The
	// shard count is an execution detail like experiment Parallelism:
	// it may change across a resume.
	Shards int
	// Agent holds the per-key detector parameters (T0, Alpha, Offset,
	// Threshold, MinK, WarmupPeriods). A zero MinK defaults to
	// DefaultKeyMinK, not the aggregate agent's 1.
	Agent core.Config
}

// Normalized returns the configuration with defaults applied. Two
// configurations resume-match exactly when their normalized KeyBits,
// MaxSources and Agent agree (Shards is an execution detail).
func (c Config) Normalized() Config {
	if c.KeyBits == 0 {
		c.KeyBits = DefaultKeyBits
	}
	if c.MaxSources == 0 {
		c.MaxSources = DefaultMaxSources
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Agent.MinK == 0 {
		c.Agent.MinK = DefaultKeyMinK
	}
	c.Agent = c.Agent.Normalized()
	return c
}

// TrackerStats reports the tracker's volume and truncation counters —
// the "what did we drop" ledger that keeps bounded memory honest.
type TrackerStats struct {
	// SYNs and SYNACKs count keyed observations routed to a tracked
	// state.
	SYNs    uint64 `json:"syns"`
	SYNACKs uint64 `json:"synAcks"`
	// UntrackedSYNACKs counts SYN/ACKs whose key held no CUSUM state
	// (SYN/ACKs never admit a key; only SYN pressure does).
	UntrackedSYNACKs uint64 `json:"untrackedSynAcks"`
	// Unkeyed counts records with no usable address.
	Unkeyed uint64 `json:"unkeyed"`
	// Evicted counts CUSUM states recycled by Space-Saving admission.
	Evicted uint64 `json:"evicted"`
	// Tracked and Alarmed describe the current key population.
	Tracked int `json:"tracked"`
	Alarmed int `json:"alarmed"`
}

// SourceReport is one key's detection state, the /sources payload row.
type SourceReport struct {
	Key netip.Prefix `json:"key"`
	// Count is the Space-Saving SYN count estimate; CountErr bounds
	// its overestimation (0 for keys admitted before capacity).
	Count        uint64  `json:"synCount"`
	CountErr     uint64  `json:"synCountErr"`
	Periods      int     `json:"periods"`
	KBar         float64 `json:"kBar"`
	Y            float64 `json:"yn"`
	X            float64 `json:"x"`
	OutSYN       uint64  `json:"lastOutSYN"`
	InSYNACK     uint64  `json:"lastInSYNACK"`
	Alarmed      bool    `json:"alarmed"`
	AlarmPeriod  int     `json:"alarmPeriod,omitempty"`
	AlarmAtNanos int64   `json:"alarmAtNanos,omitempty"`
	AlarmY       float64 `json:"alarmY,omitempty"`
}

// keyState is one tracked source: the same scalars a core.Agent keeps
// (EWMA K̄, CUSUM statistic, period counters) plus the Space-Saving
// admission counters. It deliberately carries no report history — per
// key memory is O(1), so total memory is O(MaxSources).
type keyState struct {
	id  addrKey      // index key
	key netip.Prefix // id as a prefix, for reports and snapshots
	idx int          // position in the shard's admission min-heap

	count uint64 // Space-Saving estimated SYN count
	errc  uint64 // overestimation bound inherited at admission

	kBar *cusum.EWMA
	det  *cusum.Detector

	periods  int
	outSYN   uint64
	inSYNACK uint64
	last     core.Report
	alarm    *core.Alarm
}

// endPeriod mirrors core.Agent.EndPeriod bit-exactly (EWMA update,
// MinK floor, warm-up gating, alarm latch) over this key's counters.
// It returns the period report and whether a new alarm latched.
func (st *keyState) endPeriod(end time.Duration, cfg *core.Config) (core.Report, bool) {
	k := st.kBar.Update(float64(st.inSYNACK))
	norm := k
	if norm < cfg.MinK {
		norm = cfg.MinK
	}
	x := (float64(st.outSYN) - float64(st.inSYNACK)) / norm

	r := core.Report{
		Index: st.periods, End: end,
		OutSYN: st.outSYN, InSYNACK: st.inSYNACK,
		K: k, X: x,
	}
	newAlarm := false
	if st.periods >= cfg.WarmupPeriods {
		alarmed := st.det.Observe(x)
		r.Y = st.det.Statistic()
		r.Alarmed = alarmed
		if alarmed && st.alarm == nil {
			st.alarm = &core.Alarm{Period: r.Index, At: end, Y: r.Y}
			newAlarm = true
		}
	}
	st.periods++
	st.outSYN, st.inSYNACK = 0, 0
	st.last = r
	return r, newAlarm
}

// reset recycles the state for a (possibly new) key id, spelled as a
// /keyBits prefix in reports. inherited is the Space-Saving count the
// key starts from (the evicted minimum; 0 when admitted below
// capacity). done is the tracker's completed-period
// clock: a key first seen now is indistinguishable from one that sat
// at zero counts since the stream began, and `done` zero-count
// periods prime K̄ to 0 (the first EWMA sample initializes directly)
// and leave the CUSUM statistic at 0 having consumed every
// post-warm-up period — so a late-admitted key is bit-identical to a
// core.Agent that replayed the key's records from the trace start.
func (st *keyState) reset(id addrKey, keyBits int, inherited uint64, done, warmup int) {
	st.id = id
	st.key = id.prefix(keyBits)
	st.count = inherited
	st.errc = inherited
	st.outSYN, st.inSYNACK = 0, 0
	st.last = core.Report{}
	st.alarm = nil
	st.periods = done
	// The zero state cannot fail validation.
	_ = st.kBar.Restore(0, done > 0)
	obs := done - warmup
	if obs < 0 {
		obs = 0
	}
	_ = st.det.Restore(0, false, uint64(obs), 0)
}

func (st *keyState) report() SourceReport {
	r := SourceReport{
		Key: st.key, Count: st.count, CountErr: st.errc,
		Periods: st.periods, KBar: st.kBar.Value(),
		Y: st.det.Statistic(), X: st.last.X,
		OutSYN: st.last.OutSYN, InSYNACK: st.last.InSYNACK,
		Alarmed: st.alarm != nil,
	}
	if st.alarm != nil {
		r.AlarmPeriod = st.alarm.Period
		r.AlarmAtNanos = int64(st.alarm.At)
		r.AlarmY = st.alarm.Y
	}
	return r
}

// keyLess orders the admission heap: by Space-Saving count, with the
// key itself as tie-break so heap evolution is deterministic.
func keyLess(a, b *keyState) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.id.less(b.id)
}

// shard is one lock stripe: a key→state index plus the Space-Saving
// min-heap over the same states.
type shard struct {
	mu    sync.Mutex
	cap   int
	index keyIndex
	heap  []*keyState

	syns, synAcks, untracked, evicted uint64
	alarmed                           int
}

func (s *shard) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

func (s *shard) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(s.heap[i], s.heap[parent]) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *shard) siftDown(i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(s.heap) && keyLess(s.heap[l], s.heap[min]) {
			min = l
		}
		if r < len(s.heap) && keyLess(s.heap[r], s.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// insert adds a restored state (resume path; may exceed cap when the
// shard count changed across the restart — admission then recycles
// in place without growing, so memory stays bounded by the snapshot).
func (s *shard) insert(st *keyState) {
	st.idx = len(s.heap)
	s.heap = append(s.heap, st)
	s.index.put(st.id, st)
	s.siftUp(st.idx)
}

// admit returns the state for a new key, allocating below capacity
// and recycling the minimum-count state (Space-Saving) at capacity.
// Callers hold s.mu.
func (s *shard) admit(id addrKey, done int, cfg *Config) *keyState {
	if len(s.heap) < s.cap {
		// Parameters were validated at Tracker construction.
		kb, _ := cusum.NewEWMA(cfg.Agent.Alpha)
		dt, _ := cusum.New(cfg.Agent.Offset, cfg.Agent.Threshold)
		st := &keyState{kBar: kb, det: dt}
		st.reset(id, cfg.KeyBits, 0, done, cfg.Agent.WarmupPeriods)
		s.insert(st)
		return st
	}
	st := s.heap[0] // minimum count
	s.index.del(st.id)
	if st.alarm != nil {
		s.alarmed--
	}
	s.evicted++
	// The new key inherits the evicted minimum as count and error
	// bound; count is unchanged so the heap property holds at the
	// root until the caller's increment sifts it down.
	st.reset(id, cfg.KeyBits, st.count, done, cfg.Agent.WarmupPeriods)
	s.index.put(id, st)
	return st
}

// feedOp is one pre-keyed observation: a SYN for key (synAck=false)
// or a SYN/ACK toward key (synAck=true).
type feedOp struct {
	key    addrKey
	synAck bool
}

// applyLocked folds one pre-keyed op into the shard. Callers hold the
// shard lock; done is the tracker's completed-period clock, stable for
// a whole batch because period closes are excluded while one is in
// flight. A SYN admits its key; a SYN/ACK only counts toward a key
// already tracked.
func (s *shard) applyLocked(op feedOp, done int, cfg *Config) {
	st := s.index.get(op.key)
	if op.synAck {
		if st != nil {
			s.synAcks++
			st.inSYNACK++
		} else {
			s.untracked++
		}
		return
	}
	s.syns++
	if st == nil {
		st = s.admit(op.key, done, cfg)
	}
	st.count++
	st.outSYN++
	s.siftDown(st.idx)
}

func (s *shard) closePeriod(end time.Duration, cfg *core.Config, onReport func(netip.Prefix, core.Report)) {
	s.mu.Lock()
	for _, st := range s.heap {
		r, newAlarm := st.endPeriod(end, cfg)
		if newAlarm {
			s.alarmed++
		}
		if onReport != nil {
			onReport(st.key, r)
		}
	}
	s.mu.Unlock()
}

// Tracker is the keyed detection engine. Observe routes records onto
// shards concurrently; ClosePeriod must come from a single caller
// (the pipeline's aggregator) with no Observe in flight for
// deterministic period boundaries — exactly the discipline the
// ingest.Aggregator's single Feed/ClosePeriod caller already has.
type Tracker struct {
	cfg     Config
	loMask  uint64 // keeps the low word's top 32+KeyBits bits (see addrKey)
	shards  []*shard
	periods atomic.Int64
	unkeyed atomic.Uint64

	// sweepMu serializes whole-tracker sweeps: ClosePeriod holds it
	// exclusively for its full multi-shard pass, and View holds it
	// shared — so a view can never observe shard 0 folded into period
	// n+1 while shard 1 still sits in period n. Observe deliberately
	// does not touch it: per-record routing stays lock-striped and the
	// single-caller ClosePeriod discipline already excludes in-flight
	// records at boundaries.
	sweepMu sync.RWMutex

	// batchMu guards the per-shard grouping scratch ObserveBatch uses.
	// The canonical caller (the aggregator's single Feed goroutine) is
	// serial; the lock merely keeps an unexpected concurrent batch
	// caller safe, at one uncontended lock per chunk.
	batchMu sync.Mutex
	scratch [][]feedOp

	// OnReport, if set, receives every per-key period report as it
	// closes. Called under the shard lock; keep it cheap. Tests use it
	// to compare against a per-key core.Agent.
	OnReport func(key netip.Prefix, r core.Report)
}

// New builds a tracker. The per-key detector parameters are validated
// once here; admissions reuse them unchecked.
func New(cfg Config) (*Tracker, error) {
	cfg = cfg.Normalized()
	if cfg.KeyBits < 1 || cfg.KeyBits > 32 {
		return nil, fmt.Errorf("sourcetrack: key bits %d outside [1,32]", cfg.KeyBits)
	}
	if cfg.MaxSources < 1 {
		return nil, fmt.Errorf("sourcetrack: non-positive max sources %d", cfg.MaxSources)
	}
	if cfg.Shards < 1 || cfg.Shards > cfg.MaxSources {
		return nil, fmt.Errorf("sourcetrack: shard count %d outside [1,%d]", cfg.Shards, cfg.MaxSources)
	}
	if cfg.Agent.T0 <= 0 {
		return nil, errors.New("sourcetrack: non-positive observation period")
	}
	if cfg.Agent.MinK <= 0 {
		return nil, errors.New("sourcetrack: non-positive MinK")
	}
	if _, err := cusum.NewEWMA(cfg.Agent.Alpha); err != nil {
		return nil, fmt.Errorf("sourcetrack: alpha: %w", err)
	}
	if _, err := cusum.New(cfg.Agent.Offset, cfg.Agent.Threshold); err != nil {
		return nil, fmt.Errorf("sourcetrack: detector: %w", err)
	}
	perShard := (cfg.MaxSources + cfg.Shards - 1) / cfg.Shards
	t := &Tracker{
		cfg:    cfg,
		loMask: ^uint64(0) << (32 - cfg.KeyBits),
		shards: make([]*shard, cfg.Shards),
	}
	for i := range t.shards {
		t.shards[i] = &shard{
			cap:   perShard,
			index: newKeyIndex(perShard),
		}
	}
	return t, nil
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config { return t.cfg }

// keyOf masks an address to the tracker's key prefix. It is the
// reference spelling of a key: compactKey(a).prefix(KeyBits) equals it
// for every address, which the tests pin.
func (t *Tracker) keyOf(a netip.Addr) (netip.Prefix, bool) {
	if !a.IsValid() {
		return netip.Prefix{}, false
	}
	a = a.Unmap()
	bits := t.cfg.KeyBits
	if a.Is6() {
		bits = 128 - (32 - bits)
	}
	p, err := a.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, false
	}
	return p, true
}

// addrKey is a key in the form the shard indexes hold it: the address's
// v4-mapped 16-byte form (As16) masked to 96+KeyBits bits, as two
// big-endian words. Unlike netip.Prefix it carries no zone pointer, so
// hashing and comparing it are plain 16-byte memory operations. Both
// IPv4 and v4-mapped IPv6 addresses land on the ::ffff: form, and a
// zone never reaches it, exactly as keyOf unmaps and drops zones.
type addrKey struct{ hi, lo uint64 }

// is4 reports whether the key is an IPv4 (::ffff:-mapped) key.
func (k addrKey) is4() bool { return k.hi == 0 && k.lo>>32 == 0xffff }

// less orders keys as netip.Addr.Compare orders their prefixes'
// addresses: IPv4 keys first, then by address. Keys of one family
// share a bit length, so this is the prefixes' full (address, bits)
// order.
func (k addrKey) less(o addrKey) bool {
	if a, b := k.is4(), o.is4(); a != b {
		return a
	}
	if k.hi != o.hi {
		return k.hi < o.hi
	}
	return k.lo < o.lo
}

// prefix spells the key as keyOf does: a /keyBits IPv4 prefix for
// mapped keys, a /(96+keyBits) IPv6 prefix otherwise. Only admission
// and snapshots need it, never the per-record path.
func (k addrKey) prefix(keyBits int) netip.Prefix {
	if k.is4() {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.lo))
		return netip.PrefixFrom(netip.AddrFrom4(b), keyBits)
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	return netip.PrefixFrom(netip.AddrFrom16(b), 96+keyBits)
}

// compactKey masks an address to its key in map form. KeyBits never
// exceeds 32, so the mask only ever touches the low word.
func (t *Tracker) compactKey(a netip.Addr) (addrKey, bool) {
	if !a.IsValid() {
		return addrKey{}, false
	}
	b := a.As16()
	return addrKey{
		hi: binary.BigEndian.Uint64(b[:8]),
		lo: binary.BigEndian.Uint64(b[8:]) & t.loMask,
	}, true
}

// FNV-1a parameters of the shard routing hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMapped is the FNV-1a state after the 12 fixed bytes (ten zeros,
// then 0xff 0xff) that open every IPv4 key's 16-byte form.
var fnvMapped = func() uint64 {
	h := uint64(fnvOffset)
	for _, c := range [12]byte{10: 0xff, 11: 0xff} {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}()

// shardIndex routes a key to its lock stripe: FNV-1a over the key
// prefix's 16-byte address form, then its bit length. With several
// shards, per-shard Space-Saving eviction shapes the keyed output, so
// this must never change where a key lands. IPv4 keys resume from
// fnvMapped and hash only their last four bytes.
func (t *Tracker) shardIndex(k addrKey) int {
	if len(t.shards) == 1 {
		return 0
	}
	var h uint64
	bits := t.cfg.KeyBits
	if k.is4() {
		h = fnvMapped
		for s := 24; s >= 0; s -= 8 {
			h = (h ^ (k.lo>>s)&0xff) * fnvPrime
		}
	} else {
		h = fnvOffset
		for s := 56; s >= 0; s -= 8 {
			h = (h ^ (k.hi>>s)&0xff) * fnvPrime
		}
		for s := 56; s >= 0; s -= 8 {
			h = (h ^ (k.lo>>s)&0xff) * fnvPrime
		}
		bits += 96
	}
	h = (h ^ uint64(uint8(bits))) * fnvPrime
	if n := uint64(len(t.shards)); n&(n-1) == 0 {
		return int(h & (n - 1)) // h % n without the division
	}
	return int(h % uint64(len(t.shards)))
}

func (t *Tracker) shardFor(k addrKey) *shard {
	return t.shards[t.shardIndex(k)]
}

// Observe routes one record. Only the pair the paper's detector pairs
// is keyed: outgoing SYNs by source, incoming SYN/ACKs by
// destination — both name the inside host behind the connection.
// SYN/ACKs never admit a key (only SYN pressure does); a SYN/ACK for
// an untracked key is tallied in TrackerStats.UntrackedSYNACKs.
func (t *Tracker) Observe(r trace.Record) {
	op, ok := t.keyRecord(&r)
	if !ok {
		return
	}
	s := t.shardFor(op.key)
	s.mu.Lock()
	s.applyLocked(op, int(t.periods.Load()), &t.cfg)
	s.mu.Unlock()
}

// Record implements the ingest.RecordTap demux hook.
func (t *Tracker) Record(r trace.Record) { t.Observe(r) }

// keyRecord classifies one record into a feedOp: outgoing SYNs keyed
// by source, incoming SYN/ACKs by destination, everything else (and
// unkeyable addresses, which bump the unkeyed counter) ignored.
func (t *Tracker) keyRecord(r *trace.Record) (feedOp, bool) {
	var a netip.Addr
	synAck := false
	switch {
	case r.Dir == trace.DirOut && r.Kind == packet.KindSYN:
		a = r.Src
	case r.Dir == trace.DirIn && r.Kind == packet.KindSYNACK:
		a, synAck = r.Dst, true
	default:
		return feedOp{}, false
	}
	key, ok := t.compactKey(a)
	if !ok {
		t.unkeyed.Add(1)
		return feedOp{}, false
	}
	return feedOp{key: key, synAck: synAck}, true
}

// ObserveBatch routes a chunk of records, grouping ops per shard so
// each shard lock is taken once per chunk instead of once per record.
// Per-shard op order preserves record order, so the resulting state is
// bit-identical to calling Observe record by record (the equivalence
// the keyed fuzz target pins). The grouping scratch is retained across
// calls; steady-state batches allocate nothing.
func (t *Tracker) ObserveBatch(recs []trace.Record) {
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	if t.scratch == nil {
		t.scratch = make([][]feedOp, len(t.shards))
	}
	for i := range recs {
		op, ok := t.keyRecord(&recs[i])
		if !ok {
			continue
		}
		si := t.shardIndex(op.key)
		t.scratch[si] = append(t.scratch[si], op)
	}
	done := int(t.periods.Load())
	for si, ops := range t.scratch {
		if len(ops) == 0 {
			continue
		}
		s := t.shards[si]
		s.mu.Lock()
		for _, op := range ops {
			s.applyLocked(op, done, &t.cfg)
		}
		s.mu.Unlock()
		t.scratch[si] = ops[:0]
	}
}

// RecordBatch implements the ingest.BatchRecordTap demux hook.
func (t *Tracker) RecordBatch(recs []trace.Record) { t.ObserveBatch(recs) }

// ClosePeriod closes the observation period for every tracked key.
// index is the pipeline's period index (informational; the tracker
// keeps its own clock, which the daemon aligns at startup).
func (t *Tracker) ClosePeriod(index int, end time.Duration) {
	_ = index
	t.sweepMu.Lock()
	for _, s := range t.shards {
		s.closePeriod(end, &t.cfg.Agent, t.OnReport)
	}
	t.periods.Add(1)
	t.sweepMu.Unlock()
}

// Periods returns how many observation periods have closed, including
// resumed or fast-forwarded ones.
func (t *Tracker) Periods() int { return int(t.periods.Load()) }

// FastForward advances an empty tracker's period clock — used when
// keyed tracking is first enabled over an aggregate-only snapshot:
// keyed evidence starts at the resume point and keys admitted later
// fast-forward from there (see keyState.reset).
func (t *Tracker) FastForward(periods int) error {
	if periods < 0 {
		return fmt.Errorf("sourcetrack: negative period count %d", periods)
	}
	st := t.Stats()
	if st.Tracked != 0 || st.SYNs != 0 || st.Unkeyed != 0 || t.Periods() != 0 {
		return errors.New("sourcetrack: fast-forward on a non-fresh tracker")
	}
	t.periods.Store(int64(periods))
	return nil
}

// Stats sums the per-shard counters.
func (t *Tracker) Stats() TrackerStats {
	st := TrackerStats{Unkeyed: t.unkeyed.Load()}
	for _, s := range t.shards {
		s.mu.Lock()
		st.SYNs += s.syns
		st.SYNACKs += s.synAcks
		st.UntrackedSYNACKs += s.untracked
		st.Evicted += s.evicted
		st.Tracked += len(s.heap)
		st.Alarmed += s.alarmed
		s.mu.Unlock()
	}
	return st
}

// Sources returns the tracked keys ranked most-suspect first: alarmed
// keys, then by CUSUM statistic, SYN count and finally the key itself
// (a total order, so the ranking is deterministic). n > 0 truncates.
func (t *Tracker) Sources(n int) []SourceReport { return t.View(n).Sources }

// TrackerView is one consistent observation of the tracker: the period
// clock, stats and ranked source list all describe the same instant —
// no period close can land between them. It is what /sources serves.
type TrackerView struct {
	Periods int
	Stats   TrackerStats
	Sources []SourceReport
}

// maxSelect is the largest limit View ranks by selection; above it a
// full sort of the population is cheaper than the insertion list.
const maxSelect = 64

// View captures a consistent view of the tracker in a single sweep.
// Unlike calling Periods, Stats and Sources back to back, the three
// parts cannot straddle a ClosePeriod: the whole collection runs under
// the shared sweep lock, touching each shard's lock once. limit > 0
// returns only the top limit ranked keys — selected, not sorted, when
// limit is small, so reports are built for those rows alone; the stats
// still describe the full population. limit <= 0 returns every key.
func (t *Tracker) View(limit int) TrackerView {
	t.sweepMu.RLock()
	v := TrackerView{
		Periods: int(t.periods.Load()),
		Stats:   TrackerStats{Unkeyed: t.unkeyed.Load()},
	}
	selecting := limit > 0 && limit <= maxSelect
	if selecting {
		v.Sources = make([]SourceReport, 0, limit)
	} else {
		v.Sources = make([]SourceReport, 0, t.tracked())
	}
	for _, s := range t.shards {
		s.mu.Lock()
		v.Stats.SYNs += s.syns
		v.Stats.SYNACKs += s.synAcks
		v.Stats.UntrackedSYNACKs += s.untracked
		v.Stats.Evicted += s.evicted
		v.Stats.Tracked += len(s.heap)
		v.Stats.Alarmed += s.alarmed
		if selecting {
			// Leaves first: they hold the shard's largest counts, so
			// the list fills with strong rows early and most later
			// states lose a single comparison against its tail.
			for i := len(s.heap) - 1; i >= 0; i-- {
				v.Sources = offerTop(v.Sources, limit, s.heap[i])
			}
		} else {
			for _, st := range s.heap {
				v.Sources = append(v.Sources, st.report())
			}
		}
		s.mu.Unlock()
	}
	t.sweepMu.RUnlock()
	if !selecting {
		v.Sources = sortReports(v.Sources)
		if limit > 0 && len(v.Sources) > limit {
			v.Sources = v.Sources[:limit]
		}
	}
	return v
}

// tracked counts the tracked keys, for sizing a full view. Callers
// hold sweepMu; admissions may still grow the count afterwards.
func (t *Tracker) tracked() int {
	n := 0
	for _, s := range t.shards {
		s.mu.Lock()
		n += len(s.heap)
		s.mu.Unlock()
	}
	return n
}

// offerTop inserts st into top, a list of at most limit reports kept in
// ranked order, if it ranks among the best limit seen so far. A report
// is built only once st earns a place. Callers hold st's shard lock.
func offerTop(top []SourceReport, limit int, st *keyState) []SourceReport {
	alarmed, y := st.alarm != nil, st.det.Statistic()
	n := len(top)
	if n == limit && compareRank(alarmed, y, st.count, st.key, &top[n-1]) >= 0 {
		return top
	}
	i := n
	for i > 0 && compareRank(alarmed, y, st.count, st.key, &top[i-1]) < 0 {
		i--
	}
	if n < limit {
		top = append(top, SourceReport{})
	}
	copy(top[i+1:], top[i:])
	top[i] = st.report()
	return top
}

// sortReports returns rows ranked. It sorts pointers and copies each
// row once, instead of swapping whole reports.
func sortReports(rows []SourceReport) []SourceReport {
	ptrs := make([]*SourceReport, len(rows))
	for i := range rows {
		ptrs[i] = &rows[i]
	}
	slices.SortFunc(ptrs, func(a, b *SourceReport) int {
		return compareRank(a.Alarmed, a.Y, a.Count, a.Key, b)
	})
	out := make([]SourceReport, len(rows))
	for i, p := range ptrs {
		out[i] = *p
	}
	return out
}

// compareRank orders a key with the given ranked fields against row b,
// most-suspect first: alarmed, then by CUSUM statistic, SYN count and
// the key itself (a total order over distinct keys, so selection and
// sorting agree).
func compareRank(alarmed bool, y float64, count uint64, key netip.Prefix, b *SourceReport) int {
	if alarmed != b.Alarmed {
		if alarmed {
			return -1
		}
		return 1
	}
	if y != b.Y {
		if y > b.Y {
			return -1
		}
		return 1
	}
	if count != b.Count {
		if count > b.Count {
			return -1
		}
		return 1
	}
	if c := key.Addr().Compare(b.Key.Addr()); c != 0 {
		return c
	}
	return key.Bits() - b.Key.Bits()
}
