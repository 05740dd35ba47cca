package bdd

import "math/bits"

// uniqueTable is the per-variable unique table: an open-addressing
// (linear probing) hash table mapping a canonical (lo,hi) child pair —
// hi regular, lo possibly complemented — to the one physical node
// labelled by the table's variable. Slots hold regular node handles
// directly; the key is recovered from the node arena, so the table
// costs one int32 per slot. Tables are power-of-two sized, grow by
// amortized doubling when the load factor (live entries plus
// tombstones) would exceed 3/4, and are rebuilt tombstone-free and
// right-sized by GC.
type uniqueTable struct {
	slots []Node // regular node handles; emptySlot / tombSlot are sentinels
	shift uint8  // 64 - log2(len(slots)); index = hash >> shift
	count int32  // live entries
	tombs int32  // tombstone slots left by delete
}

const (
	// emptySlot marks a never-used slot. Regular handle 0 is the
	// terminal and never enters a unique table, so 0 is free.
	emptySlot Node = 0
	// tombSlot marks a deleted slot: lookups probe past it, inserts
	// may reuse it.
	tombSlot Node = -1
)

// hashPair mixes a child pair into a 64-bit hash whose high bits index
// the table (Fibonacci hashing). The complement bit of lo is part of
// the key; hi is always regular.
func hashPair(lo, hi Node) uint64 {
	return (uint64(uint32(lo))<<32 | uint64(uint32(hi))) * 0x9E3779B97F4A7C15
}

// lookup returns the regular handle of the node with children (lo,hi),
// or 0 when absent.
func (t *uniqueTable) lookup(nodes []node, lo, hi Node) Node {
	if len(t.slots) == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	i := hashPair(lo, hi) >> t.shift
	for {
		s := t.slots[i]
		if s == emptySlot {
			return 0
		}
		if s != tombSlot {
			nd := &nodes[s>>1]
			if nd.lo == lo && nd.hi == hi {
				return s
			}
		}
		i = (i + 1) & mask
	}
}

// insert adds the node with regular handle n and children (lo,hi),
// which must not already be present. The table grows first (from pool)
// when the insert would push the load factor over 3/4.
func (t *uniqueTable) insert(nodes []node, pool *slotPool, lo, hi Node, n Node) {
	if (int(t.count)+int(t.tombs)+1)*4 > len(t.slots)*3 {
		t.rehash(nodes, pool, int(t.count)+1)
	}
	mask := uint64(len(t.slots) - 1)
	i := hashPair(lo, hi) >> t.shift
	for t.slots[i] != emptySlot && t.slots[i] != tombSlot {
		i = (i + 1) & mask
	}
	if t.slots[i] == tombSlot {
		t.tombs--
	}
	t.slots[i] = n
	t.count++
}

// delete removes the entry with children (lo,hi), leaving a tombstone
// so later probe chains stay intact. Rehash and GC purge tombstones.
func (t *uniqueTable) delete(nodes []node, lo, hi Node) {
	mask := uint64(len(t.slots) - 1)
	i := hashPair(lo, hi) >> t.shift
	for {
		s := t.slots[i]
		if s == emptySlot {
			return
		}
		if s != tombSlot {
			nd := &nodes[s>>1]
			if nd.lo == lo && nd.hi == hi {
				t.slots[i] = tombSlot
				t.count--
				t.tombs++
				return
			}
		}
		i = (i + 1) & mask
	}
}

// tableSize returns the power-of-two capacity that keeps want live
// entries at or below half load.
func tableSize(want int) int {
	size := 16
	for size < want*2 {
		size *= 2
	}
	return size
}

// rehash rebuilds the table at a capacity sized for want live entries,
// dropping every tombstone. The new slot array comes from, and the old
// one returns to, the manager's slot pool.
func (t *uniqueTable) rehash(nodes []node, pool *slotPool, want int) {
	size := tableSize(want)
	old := t.slots
	t.slots = pool.get(size)
	t.shift = uint8(64 - bits.Len(uint(size-1)))
	t.tombs = 0
	mask := uint64(size - 1)
	for _, s := range old {
		if s == emptySlot || s == tombSlot {
			continue
		}
		nd := &nodes[s>>1]
		i := hashPair(nd.lo, nd.hi) >> t.shift
		for t.slots[i] != emptySlot {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
	pool.put(old)
}

// reset empties the table and sizes it for want live entries; GC uses
// it to rebuild tables right-sized (shrinking sparse ones, so sift's
// slot scans stay proportional to live nodes).
func (t *uniqueTable) reset(pool *slotPool, want int) {
	if want == 0 {
		pool.put(t.slots)
		t.slots, t.shift = nil, 0
		t.count, t.tombs = 0, 0
		return
	}
	size := tableSize(want)
	if size == len(t.slots) {
		clear(t.slots)
	} else {
		pool.put(t.slots)
		t.slots = pool.get(size)
		t.shift = uint8(64 - bits.Len(uint(size-1)))
	}
	t.count, t.tombs = 0, 0
}

// slotPool recycles unique-table slot arrays within one manager, so
// table growth, GC's right-sizing and Manager.Reset reuse storage
// instead of allocating it. Bucket k holds free arrays of exactly 1<<k
// slots (table sizes are powers of two). The pool only ever holds
// arrays the manager's own tables once used, so it is bounded by the
// largest set of tables the manager has held.
type slotPool [64][][]Node

// get returns an all-empty array of size slots (a power of two).
func (p *slotPool) get(size int) []Node {
	k := bits.TrailingZeros(uint(size))
	if n := len(p[k]); n > 0 {
		s := p[k][n-1]
		p[k] = p[k][:n-1]
		clear(s)
		return s
	}
	return make([]Node, size)
}

// put returns a table's slot array to the pool; nil is ignored.
func (p *slotPool) put(s []Node) {
	if len(s) == 0 {
		return
	}
	k := bits.TrailingZeros(uint(len(s)))
	p[k] = append(p[k], s)
}
