// Performance-aware routing (paper §6): alternate-path measurement finds
// prefixes whose BGP-preferred path is slower than an alternate — often
// a transit route beating a congested-beyond-the-peering peer path — and
// the controller steers them, capacity permitting.
//
//	go run ./examples/perfaware
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
)

func main() {
	cfg := exp.HarnessConfig{
		Synth: netsim.SynthConfig{
			Seed:               7,
			Prefixes:           500,
			EdgeASes:           60,
			PrivatePeers:       6,
			PublicPeers:        10,
			RouteServerMembers: 15,
			PeakBps:            100e9,
			// Roomy PNIs: this demo is about performance, not overload.
			PNIHeadroomMin: 1.3,
			PNIHeadroomMax: 1.8,
		},
		// 12% of prefixes have a remotely-impaired preferred path,
		// twice the paper's ~6%, to make the demo vivid.
		Perf:              netsim.PathPerfConfig{AnomalyProb: 0.12},
		ControllerEnabled: true,
		PerfAware:         true,
		Start:             time.Date(2017, 3, 1, 14, 0, 0, 0, time.UTC),
	}
	h, err := exp.NewHarness(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	fmt.Printf("converged: %s\n\n", h)

	// Let the measurer accumulate samples over a few cycles, then show
	// what it found and what the controller did about it.
	perfOverrides := map[string]string{}
	h.Run(10*time.Minute, func(_ *netsim.TickStats, r *core.CycleReport) {
		if r == nil {
			return
		}
		for _, o := range r.Overrides {
			if strings.Contains(o.Reason, "alt path") {
				perfOverrides[o.Prefix.String()] = o.Reason
			}
		}
	})

	fmt.Println("alternate-path measurement summary:")
	cdf := h.Measurer.GapCDF(5, 10, 20, 50)
	for _, th := range []float64{5, 10, 20, 50} {
		fmt.Printf("  alternate >= %2.0f ms faster: %5.1f%% of measured prefixes\n",
			th, cdf[th]*100)
	}

	fmt.Println("\nworst preferred-path deficits (measured):")
	reports := h.Measurer.Reports()
	sort.Slice(reports, func(a, b int) bool { return reports[a].GapMS > reports[b].GapMS })
	for i, rep := range reports {
		if i >= 8 || rep.GapMS <= 0 {
			break
		}
		fmt.Printf("  %-22s preferred p50 %5.1f ms, best alternate %5.1f ms (%s) — gap %4.1f ms\n",
			rep.Prefix, rep.Paths[0].P50, rep.BestAlt.P50, rep.BestAlt.Route.PeerClass, rep.GapMS)
	}

	fmt.Printf("\nperformance overrides installed this run: %d\n", len(perfOverrides))
	shown := 0
	for prefix, reason := range perfOverrides {
		fmt.Printf("  %-22s %s\n", prefix, reason)
		if shown++; shown >= 8 {
			break
		}
	}
}
