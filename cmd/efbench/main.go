// Command efbench regenerates the experiments in EXPERIMENTS.md: it runs
// the rung table (exp.Rungs: E1–E10, FLEET, E13, E16, E17 and E18, plus
// E14 and E15 when named with -only) at the requested scale and prints
// each experiment's rows. The output of `efbench -scale paper` is what
// EXPERIMENTS.md records.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"edgefabric/internal/exp"
)

func main() {
	var (
		scale = flag.String("scale", "small", "small | paper (scenario size)")
		only  = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4); empty = all")
		seed  = flag.Int64("seed", 1, "scenario seed")
		out   = flag.String("out", "", "also write results to this file")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	s, err := exp.NewScale(*scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	var rungs []exp.Rung
	for _, r := range exp.Rungs {
		if named(*only, r.ID) || (*only == "" && !r.Explicit) {
			rungs = append(rungs, r)
		}
	}

	started := time.Now()
	fmt.Fprintf(w, "edge fabric experiment suite — scale=%s seed=%d (%d prefixes, %s simulated/arm)\n\n",
		s.Name, *seed, s.Base.Synth.Prefixes, s.Day)
	if err := exp.RunRungs(context.Background(), w, s, rungs); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "total wall time %s\n", time.Since(started).Round(time.Second))
}

// named reports whether id is in the comma-separated list only.
func named(only, id string) bool {
	for _, s := range strings.Split(only, ",") {
		if strings.EqualFold(strings.TrimSpace(s), id) {
			return true
		}
	}
	return false
}
