package rib

import (
	"testing"
	"unsafe"
)

// A route arena block must stay a size-classed object (at most 32 KB in
// the Go runtime): a field added to Route can push it over, and a large
// block's allocation cost then depends on the last GC's sweep.
func TestArenaBlockIsSmallObject(t *testing.T) {
	if b := unsafe.Sizeof(Route{}) * arenaChunk; b > 32<<10 {
		t.Fatalf("arena block is %d bytes (%d routes of %d), over the 32 KB small-object limit",
			b, arenaChunk, unsafe.Sizeof(Route{}))
	}
}
