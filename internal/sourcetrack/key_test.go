package sourcetrack

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/trace"
)

// refShardIndex is the routing the compact shardIndex must reproduce:
// byte-wise FNV-1a over the key prefix's As16 form, then its bit
// length.
func refShardIndex(key netip.Prefix, shards int) int {
	if shards == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for _, c := range key.Addr().As16() {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(uint8(key.Bits()))
	h *= 1099511628211
	return int(h % uint64(shards))
}

// keyTestAddrs returns edge-case and random IPv4, IPv6, v4-mapped IPv6
// and zoned addresses.
func keyTestAddrs(rng *rand.Rand) []netip.Addr {
	addrs := []netip.Addr{
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("10.1.2.3"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("::1"),
		netip.MustParseAddr("::ffff:0.0.0.0"),
		netip.MustParseAddr("::ffff:255.255.255.255"),
		netip.MustParseAddr("::fffe:1.2.3.4"),
		netip.MustParseAddr("::1:ffff:1.2.3.4"),
		netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("::ffff:10.1.2.3%eth0"),
	}
	for i := 0; i < 64; i++ {
		var b4 [4]byte
		var b16 [16]byte
		rng.Read(b4[:])
		rng.Read(b16[:])
		v4 := netip.AddrFrom4(b4)
		v6 := netip.AddrFrom16(b16)
		mapped := netip.AddrFrom16(v4.As16())
		addrs = append(addrs, v4, v6, mapped, v6.WithZone("eth1"), mapped.WithZone("en0"))
	}
	return addrs
}

// TestCompactKeyMatchesReference pins key identity and routing: for
// every address kind and KeyBits, the compact map key spells exactly
// the prefix keyOf returns, and it lands on the shard the byte-wise
// FNV of that prefix picks.
func TestCompactKeyMatchesReference(t *testing.T) {
	addrs := keyTestAddrs(rand.New(rand.NewSource(7)))
	for bits := 1; bits <= 32; bits++ {
		trackers := map[int]*Tracker{}
		for _, shards := range []int{1, 2, 3, 8} {
			tk, err := New(Config{KeyBits: bits, MaxSources: 8, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			trackers[shards] = tk
		}
		tk := trackers[1]
		for _, a := range addrs {
			want, ok := tk.keyOf(a)
			if !ok {
				t.Fatalf("/%d: keyOf(%v) failed", bits, a)
			}
			id, ok := tk.compactKey(a)
			if !ok {
				t.Fatalf("/%d: compactKey(%v) failed", bits, a)
			}
			if got := id.prefix(bits); got != want {
				t.Fatalf("/%d: compact key of %v spells %v, keyOf gives %v", bits, a, got, want)
			}
			if back, _ := tk.compactKey(want.Addr()); back != id {
				t.Fatalf("/%d: %v re-keys to %+v, want %+v", bits, want, back, id)
			}
			for shards, st := range trackers {
				if got, ref := st.shardIndex(id), refShardIndex(want, shards); got != ref {
					t.Fatalf("/%d, %d shards: %v routes to shard %d, reference %d", bits, shards, a, got, ref)
				}
			}
		}
	}
	tk, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The admission heap's tie-break: compact keys order as their
	// prefixes do under Addr.Compare, then bit length.
	for _, a := range addrs {
		for _, b := range addrs[:40] {
			pa, _ := tk.keyOf(a)
			pb, _ := tk.keyOf(b)
			ia, _ := tk.compactKey(a)
			ib, _ := tk.compactKey(b)
			ref := pa.Addr().Compare(pb.Addr())
			if ref == 0 {
				ref = pa.Bits() - pb.Bits()
			}
			if got := ia.less(ib); got != (ref < 0) {
				t.Fatalf("%v < %v: compact order %v, prefix order %d", pa, pb, got, ref)
			}
		}
	}
	if _, ok := tk.compactKey(netip.Addr{}); ok {
		t.Fatal("the zero address must not key")
	}
}

// rankedTracker builds a tracker of about n keys, random IPv4 and IPv6,
// drawn from a few SYN/ACK classes so counts and CUSUM statistics tie
// in bulk, plus a handful of unanswered flooders that alarm.
func rankedTracker(t *testing.T, rng *rand.Rand, shards, n int) *Tracker {
	t.Helper()
	tk, err := New(Config{
		KeyBits:    24,
		MaxSources: n,
		Shards:     shards,
		Agent:      core.Config{T0: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	type src struct {
		addr  netip.Addr
		syns  int
		acked int
	}
	srcs := make([]src, n)
	for i := range srcs {
		var a netip.Addr
		if rng.Intn(3) == 0 {
			var b [16]byte
			rng.Read(b[:])
			b[0] = 0x20 // never v4-mapped
			a = netip.AddrFrom16(b)
		} else {
			a = netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		}
		syns := 1 + rng.Intn(3)
		acked := syns - rng.Intn(2)
		if i%(n/4+1) == 0 {
			syns, acked = 60+rng.Intn(2), 0
		}
		srcs[i] = src{a, syns, acked}
	}
	dst := netip.MustParseAddr("11.9.9.9")
	for period := 0; period < 8; period++ {
		for _, s := range srcs {
			for j := 0; j < s.syns; j++ {
				tk.Observe(trace.Record{Kind: packet.KindSYN, Dir: trace.DirOut, Src: s.addr, Dst: dst})
			}
			for j := 0; j < s.acked; j++ {
				tk.Observe(trace.Record{Kind: packet.KindSYNACK, Dir: trace.DirIn, Src: dst, Dst: s.addr})
			}
		}
		tk.ClosePeriod(period, time.Duration(period+1)*time.Second)
	}
	return tk
}

// TestViewSelectionMatchesSort pins that a limited view, which selects
// its rows, returns exactly the head of the fully sorted view.
func TestViewSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shards := range []int{1, 2, 3} {
		for _, size := range []int{40, 300} {
			tk := rankedTracker(t, rng, shards, size)
			full := tk.View(0).Sources
			n := len(full)
			if st := tk.Stats(); st.Alarmed < 2 || st.Tracked != n {
				t.Fatalf("shards=%d: want several alarmed keys: %+v", shards, st)
			}
			ties := 0
			for i := 1; i < n; i++ {
				if full[i].Y == full[i-1].Y && full[i].Count == full[i-1].Count {
					ties++
				}
			}
			if ties < n/4 {
				t.Fatalf("shards=%d: only %d of %d adjacent rows tie on Y and count", shards, ties, n)
			}
			for _, k := range []int{1, 8, maxSelect, n - 1, n, n + 5} {
				got := tk.View(k).Sources
				if want := full[:min(k, n)]; !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d n=%d: View(%d) is not the sorted view's head", shards, n, k)
				}
			}
		}
	}
}

// TestKeyIndexMatchesMap drives a small index (so probe runs collide,
// wrap and grow) through random puts and deletes against a Go map.
func TestKeyIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := newKeyIndex(4)
	ref := map[addrKey]*keyState{}
	universe := make([]addrKey, 96)
	for i := range universe {
		universe[i] = addrKey{hi: uint64(rng.Intn(2)), lo: rng.Uint64()}
	}
	for op := 0; op < 20000; op++ {
		id := universe[rng.Intn(len(universe))]
		if st := ref[id]; st != nil && rng.Intn(2) == 0 {
			x.del(id)
			delete(ref, id)
		} else if st == nil {
			st = &keyState{id: id}
			x.put(id, st)
			ref[id] = st
		}
		if x.n != len(ref) || 2*x.n > len(x.slots) {
			t.Fatalf("op %d: index holds %d in %d slots, reference %d", op, x.n, len(x.slots), len(ref))
		}
		for _, id := range universe {
			if got := x.get(id); got != ref[id] {
				t.Fatalf("op %d: get(%+v) = %p, want %p", op, id, got, ref[id])
			}
		}
	}
}
