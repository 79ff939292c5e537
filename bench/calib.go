package main

import "time"

// calibrate runs a fixed amount of work that does not depend on the
// program under test — FNV-1a over a buffer of mib MiB (64 in a real
// run), then a fixed pass of updates to a populated map — and returns
// its wall time in milliseconds. The timed pass allocates nothing. It
// runs before and after every workload: two runs whose calibration
// differs by more than 10 % measured different machines, and the
// agreement check refuses to compare them.
func calibrate(mib int) float64 {
	buf := make([]byte, mib<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	m := make(map[uint64]uint64, 1<<20)
	pass := func(h uint64) uint64 {
		for _, b := range buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		for i := uint64(0); i < 1<<19; i++ {
			m[(i*0x9e3779b97f4a7c15)>>40] += h
		}
		return h
	}
	h := pass(14695981039346656037) // untimed: faults the map's pages in
	t0 := time.Now()
	h = pass(h)
	d := time.Since(t0)
	if m[0] == 1 { // keep the work observable
		println(h)
	}
	return ms(d)
}
