package exp

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestFleetAcrossPoPs(t *testing.T) {
	base := testConfig(true)
	// Vary provisioning so some sites are comfortable and some are not;
	// the seeds diverge per PoP, so headroom draws differ.
	base.Synth.PNIHeadroomMin = 0.7
	base.Synth.PNIHeadroomMax = 1.6
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fleet, err := NewFleet(ctx, fleetConfigs(base, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if len(fleet.PoPs) != 3 {
		t.Fatalf("pops = %d", len(fleet.PoPs))
	}
	// Distinct scenarios per site.
	if fleet.PoPs[0].Scenario.Topo.Name == fleet.PoPs[1].Scenario.Topo.Name {
		t.Error("PoP names should differ")
	}

	res := fleet.Run(10 * time.Minute)
	if len(res.PoPs) != 3 {
		t.Fatalf("summaries = %d", len(res.PoPs))
	}
	// The sites peak at 20:00, 22:00 and 00:00, so all start near
	// their peak with tight headroom somewhere: at least one should
	// need detours.
	if res.PoPsWithDetours == 0 {
		t.Error("no PoP detoured at peak despite tight provisioning")
	}
	if res.MaxPeakDetour < res.MedianPeakDetour {
		t.Error("max < median")
	}
	for _, p := range res.PoPs {
		if p.PeakUtil <= 0 {
			t.Errorf("%s: no utilization recorded", p.Name)
		}
	}
	out := res.String()
	if !strings.Contains(out, "Fleet: 3 PoPs") {
		t.Errorf("String() = %q", out)
	}
}

func TestFleetPeakStagger(t *testing.T) {
	base := testConfig(false)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fleet, err := NewFleet(ctx, fleetConfigs(base, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	h0, h1 := fleet.PoPs[0], fleet.PoPs[1]
	at := h0.Clock.Now()
	// PoP 0 peaks at 20:00 (start hour), PoP 1 at 02:00: at 20:00 the
	// first site's diurnal factor must exceed the second's.
	d0 := h0.Demand.Diurnal(at)
	d1 := h1.Demand.Diurnal(at)
	if d0 <= d1 {
		t.Errorf("stagger missing: d0=%.3f d1=%.3f", d0, d1)
	}
}
