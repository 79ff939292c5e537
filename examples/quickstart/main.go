// Quickstart: bring up a complete Edge Fabric deployment in one process
// — an emulated PoP (real BGP speakers, BMP feeds, sFlow sampling) plus
// the controller — and watch it keep an oversubscribed evening peak
// below interface capacity.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
)

func main() {
	// A small PoP: 6 private peers whose PNIs are deliberately too
	// small for their ASes' evening peak (headroom 0.6–0.9×), a public
	// IXP, and two transit providers with plenty of room.
	cfg := exp.HarnessConfig{
		Synth: netsim.SynthConfig{
			Seed:           42,
			Prefixes:       600,
			EdgeASes:       80,
			PrivatePeers:   6,
			PublicPeers:    12,
			PeakBps:        150e9,
			PNIHeadroomMin: 0.6,
			PNIHeadroomMax: 0.9,
		},
		Allocator:         core.AllocatorConfig{Threshold: 0.95},
		ControllerEnabled: true,
		Start:             time.Date(2017, 3, 1, 19, 30, 0, 0, time.UTC), // ramping into peak
	}

	fmt.Println("starting PoP: BGP sessions, BMP feeds, sFlow, controller...")
	h, err := exp.NewHarness(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	fmt.Printf("converged: %s\n\n", h)

	// Simulate one virtual hour into the evening peak. Every 30 s tick
	// the dataplane routes demand by the PoP's live BGP table; every
	// cycle the controller measures, projects, allocates, and injects.
	h.Run(time.Hour, func(stats *netsim.TickStats, report *core.CycleReport) {
		if report == nil || report.Seq%10 != 0 {
			return
		}
		fmt.Printf("%s  demand %5.1fG  drops %5.2fG  overrides %2d  detoured %5.1fG\n",
			stats.Time.Format("15:04:05"),
			stats.TotalDemandBps()/1e9,
			stats.TotalDropsBps()/1e9,
			len(report.Overrides),
			report.DetouredBps/1e9)
	})

	fmt.Println("\nfinal override set (prefix → detour):")
	for i, o := range h.Controller.Installed() {
		if i == 10 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %-20s -> %s (%s, if %d -> %d)\n",
			o.Prefix, o.Via.NextHop, o.Via.PeerClass, o.FromIF, o.ToIF)
	}
	fmt.Println("\ncontroller metrics:")
	fmt.Print(h.Controller.Metrics().Render())
}
