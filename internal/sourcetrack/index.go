package sourcetrack

import (
	"math/bits"
	"math/rand/v2"
)

// keyIndex is a shard's key → state lookup: open addressing with
// linear probing over a power-of-two table held at most half full. A
// shard tracks at most its capacity of keys, so the table is sized
// once and only a restore that lands more keys on one shard than its
// capacity (the shard count changed across a restart) grows it.
//
// Source addresses are attacker-chosen, so the multiply hash is keyed
// with a per-index random seed: without it a spoofer could aim every
// key at one probe run.
type keyIndex struct {
	slots []indexSlot
	shift uint // 64 - log2(len(slots))
	seed  uint64
	n     int
}

type indexSlot struct {
	id addrKey
	st *keyState // nil marks an empty slot
}

func newKeyIndex(capacity int) keyIndex {
	var x keyIndex
	x.seed = rand.Uint64()
	x.resize(2 * capacity)
	return x
}

// resize rebuilds the table with room for at least min slots.
func (x *keyIndex) resize(min int) {
	old := x.slots
	size := 1 << bits.Len(uint(max(min, 8)-1))
	x.slots = make([]indexSlot, size)
	x.shift = uint(64 - bits.Len(uint(size-1)))
	x.n = 0
	for _, s := range old {
		if s.st != nil {
			x.put(s.id, s.st)
		}
	}
}

// home is id's preferred slot.
func (x *keyIndex) home(id addrKey) int {
	h := (id.lo ^ x.seed) * 0x9e3779b97f4a7c15
	h = (h ^ id.hi) * 0xbf58476d1ce4e5b9
	return int(h >> x.shift)
}

// get returns id's state, or nil.
func (x *keyIndex) get(id addrKey) *keyState {
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.st == nil || s.id == id {
			return s.st
		}
	}
}

// put maps a key not yet present to st.
func (x *keyIndex) put(id addrKey, st *keyState) {
	if 2*(x.n+1) > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	mask := len(x.slots) - 1
	i := x.home(id)
	for x.slots[i].st != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = indexSlot{id, st}
	x.n++
}

// del removes a present key, shifting later members of its probe run
// back so no tombstones accumulate.
func (x *keyIndex) del(id addrKey) {
	mask := len(x.slots) - 1
	i := x.home(id)
	for x.slots[i].id != id || x.slots[i].st == nil {
		i = (i + 1) & mask
	}
	for j := i; ; {
		x.slots[i] = indexSlot{}
		for {
			j = (j + 1) & mask
			if x.slots[j].st == nil {
				x.n--
				return
			}
			// The entry at j may fill the hole at i unless its home
			// lies cyclically in (i, j].
			h := x.home(x.slots[j].id)
			if (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		x.slots[i] = x.slots[j]
		i = j
	}
}
