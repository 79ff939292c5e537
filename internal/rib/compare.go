package rib

import (
	"net/netip"
	"slices"
)

// ComparePrefixes orders prefixes by address family (IPv4 first), then
// address, then prefix length, returning -1, 0, or +1. Unlike comparing
// Prefix.String() values it allocates nothing, so hot paths that need a
// stable prefix order (allocator candidate ordering, injector update
// batching, projection indexes) can sort without per-comparison garbage.
func ComparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}

// SortPrefixes sorts ps in ComparePrefixes order.
func SortPrefixes(ps []netip.Prefix) {
	slices.SortFunc(ps, ComparePrefixes)
}
