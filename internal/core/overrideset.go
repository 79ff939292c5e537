package core

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"

	"edgefabric/internal/rib"
)

// OverrideSet is the one form an override set is held in: sorted by
// rib.ComparePrefixes, one override per prefix, never modified once
// built, nil when empty. Build one with NewOverrideSet; a conversion of
// an unsorted slice breaks Lookup.
type OverrideSet []Override

// NewOverrideSet returns a sorted copy of overrides as a set. A prefix
// listed twice keeps its last override, as the injector does.
func NewOverrideSet(overrides []Override) OverrideSet {
	s := lastPerPrefix(slices.Clone(overrides), func(o Override) netip.Prefix { return o.Prefix })
	return OverrideSet(slices.Clip(s))
}

// lastPerPrefix sorts s stably by prefix, in place, and keeps the last
// element of each prefix.
func lastPerPrefix[T any](s []T, prefix func(T) netip.Prefix) []T {
	slices.SortStableFunc(s, func(a, b T) int { return rib.ComparePrefixes(prefix(a), prefix(b)) })
	out := s[:0]
	for i := range s {
		if i+1 == len(s) || prefix(s[i+1]) != prefix(s[i]) {
			out = append(out, s[i])
		}
	}
	return out
}

// Lookup returns the set's override for p.
func (s OverrideSet) Lookup(p netip.Prefix) (Override, bool) {
	i := sort.Search(len(s), func(i int) bool { return rib.ComparePrefixes(s[i].Prefix, p) >= 0 })
	if i < len(s) && s[i].Prefix == p {
		return s[i], true
	}
	return Override{}, false
}

// Equal reports whether s and t make the same decision for every
// prefix: exactly when their renderings are equal.
func (s OverrideSet) Equal(t OverrideSet) bool {
	return slices.EqualFunc(s, t, func(a, b Override) bool { return a.SameDecision(&b) })
}

// WriteTo writes the set's canonical rendering, which the decision pins
// hash: a "cycle N" line, then each override's AppendDecision line.
func (s OverrideSet) WriteTo(w io.Writer) (int64, error) {
	b := fmt.Appendf(nil, "cycle %d\n", len(s))
	for i := range s {
		b = append(s[i].AppendDecision(b), '\n')
	}
	n, err := w.Write(b)
	return int64(n), err
}

// SameDecision reports whether o and p decide the same: prefix, next
// hop, target interface, and each member's next hop and weight in
// order, the fields AppendDecision prints.
func (o *Override) SameDecision(p *Override) bool {
	return o.Prefix == p.Prefix && o.Via.NextHop == p.Via.NextHop && o.ToIF == p.ToIF &&
		slices.EqualFunc(o.Multipath, p.Multipath, func(a, b PathWeight) bool {
			return a.Via.NextHop == b.Via.NextHop && a.WeightPct == b.WeightPct
		})
}

// AppendDecision appends o's line of the canonical rendering.
func (o *Override) AppendDecision(b []byte) []byte {
	b = fmt.Appendf(b, "%s %s %d", o.Prefix, o.Via.NextHop, o.ToIF)
	for _, pw := range o.Multipath {
		b = fmt.Appendf(b, " %s/%d", pw.Via.NextHop, pw.WeightPct)
	}
	return b
}
