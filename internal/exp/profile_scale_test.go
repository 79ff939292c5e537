package exp

import (
	"os"
	"strconv"
	"testing"
)

// TestE14Profile is a profiling hook, skipped unless E14PROF is set to
// a prefix count. It exists so the E14 scale run can be put under the
// standard test profilers without dragging a multi-gigabyte experiment
// into the regular suite:
//
//	E14PROF=1000000 go test ./internal/exp -run TestE14Profile \
//	    -cpuprofile cpu.out -memprofile mem.out
func TestE14Profile(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("E14PROF"))
	if n == 0 {
		t.Skip("profiling hook: set E14PROF=<prefix count> to run")
	}
	res, err := E14MillionPrefix(ScaleConfig{Prefixes: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
}
