package rib

import "slices"

// Attribute interning: a full Internet table carries the same AS_PATH
// (and community list) on thousands of routes — every prefix announced
// by one transit session shares a handful of paths, and a large peer's
// whole announcement set usually shares one. Interning canonicalizes
// those []uint32 slices at insertion time so the table stores each
// distinct sequence once, cutting the resident size of a million-route
// table by the attribute payload's duplication factor and making
// route-equality checks on paths pointer-cheap.
//
// The interner is owned by a Table and accessed only under its write
// lock; it needs no locking of its own.

// internCap bounds distinct interned sequences. A real table holds
// vastly fewer distinct paths than routes (hundreds of thousands at
// Internet scale); past the cap new sequences are stored as-is rather
// than interned, so pathological inputs degrade to the old memory
// behaviour instead of growing the index without bound.
const internCap = 1 << 20

// u32Interner dedups []uint32 sequences by content.
type u32Interner struct {
	buckets map[uint64][][]uint32
	size    int
}

// hashU32 is FNV-1a over the sequence's words.
func hashU32(s []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// intern returns the canonical slice equal to s, registering s as the
// canonical copy when the content is new. Empty input interns to nil so
// "no path" has a single representation. The returned slice must be
// treated as immutable.
func (in *u32Interner) intern(s []uint32) []uint32 {
	if len(s) == 0 {
		return nil
	}
	if in.buckets == nil {
		in.buckets = make(map[uint64][][]uint32)
	}
	h := hashU32(s)
	for _, cand := range in.buckets[h] {
		if slices.Equal(cand, s) {
			return cand
		}
	}
	if in.size >= internCap {
		return s
	}
	in.buckets[h] = append(in.buckets[h], s)
	in.size++
	return s
}

// routeArena chunk-allocates the Table's long-lived Route values, the
// same trade the projector's planChunk makes for PrefixPlans: one heap
// object per arenaChunk routes instead of one per route, which keeps a
// million-route table's object count (and GC scan work) two orders of
// magnitude lower. Blocks never move, so handed-out pointers stay valid
// for the life of any snapshot that references them; a block is
// reclaimed only once every route in it is unreachable.
type routeArena struct {
	block []Route
}

// arenaChunk is the routes per block, sized so that a block stays a
// size-classed object, as core's routeSlabMax is: a block over 32 KB is
// a large object of whole pages, whose allocation cost depends on how far
// the sweep of the last GC has got, and BMP dump replays in the stretch
// after a collection then ran at about 60 % of the rate of those before
// the next one.
const arenaChunk = 128

// put copies *r into the arena and returns the arena's stable pointer.
func (a *routeArena) put(r *Route) *Route {
	if len(a.block) == 0 {
		a.block = make([]Route, arenaChunk)
	}
	p := &a.block[0]
	a.block = a.block[1:]
	*p = *r
	return p
}
