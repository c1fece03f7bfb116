// Command nmad-trace runs a small multi-flow workload with engine
// tracing enabled and dumps the sender's scheduling timeline — the
// optimization window at work: submissions accumulating while the NIC is
// busy, multi-wrapper elections, rendezvous conversions and piggybacked
// control.
//
// Usage:
//
//	nmad-trace                    # timeline on stdout
//	nmad-trace -chrome out.json   # chrome://tracing / Perfetto export
//	nmad-trace -record out.jsonl  # replayable recording of the offered load
//	nmad-trace -strategy default
//
// A recording written with -record can be re-driven under any strategy
// or credit budget with nmad-replay.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"nmad"
)

func main() {
	strategy := flag.String("strategy", "aggreg",
		"engine strategy ("+strings.Join(nmad.Strategies(), "|")+")")
	chrome := flag.String("chrome", "", "write a Chrome trace-event JSON file instead of a text timeline")
	record := flag.String("record", "", "write a replayable JSONL recording of the offered load (see nmad-replay)")
	flag.Parse()

	rec := nmad.NewTracer()
	recording := nmad.NewRecording()
	cl, err := nmad.NewCluster(2, nmad.WithRails(nmad.MX10G()))
	if err != nil {
		log.Fatal(err)
	}
	sender, err := cl.Engine(0, nmad.WithStrategy(*strategy), nmad.WithTracer(rec), nmad.WithRecording(recording))
	if err != nil {
		log.Fatal(err)
	}
	receiver, err := cl.Engine(1, nmad.WithStrategy(*strategy), nmad.WithRecording(recording))
	if err != nil {
		log.Fatal(err)
	}

	// The workload: a burst of small sends on distinct flows plus one
	// large send (rendezvous), the §5.2/§5.3 patterns in miniature.
	cl.Spawn("sender", func(p *nmad.Proc) {
		g := sender.Gate(1)
		for i := 0; i < 6; i++ {
			g.Isend(p, nmad.Tag(i), make([]byte, 128))
		}
		g.Isend(p, 100, make([]byte, 256<<10))
		for i := 6; i < 10; i++ {
			g.Isend(p, nmad.Tag(i), make([]byte, 128))
		}
	})
	cl.Spawn("receiver", func(p *nmad.Proc) {
		g := receiver.Gate(0)
		var reqs []nmad.Request
		for i := 0; i < 10; i++ {
			reqs = append(reqs, g.Irecv(p, nmad.Tag(i), make([]byte, 128)))
		}
		reqs = append(reqs, g.Irecv(p, 100, make([]byte, 256<<10)))
		if err := nmad.WaitAll(p, reqs...); err != nil {
			log.Fatal(err)
		}
	})
	if err := cl.Run(); err != nil {
		log.Fatal(err)
	}

	wrote := false
	if *record != "" {
		out, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		if err := recording.Write(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recorded %d operations to %s (replay with: nmad-replay -ab %s %s)\n",
			recording.Len(), *record, strings.Join(nmad.Strategies(), ","), *record)
		wrote = true
	}
	if *chrome != "" {
		out, err := os.Create(*chrome)
		if err != nil {
			log.Fatal(err)
		}
		defer out.Close()
		if err := rec.WriteChrome(out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d events to %s\n", rec.Total(), *chrome)
		wrote = true
	}
	if wrote {
		return
	}
	fmt.Printf("sender timeline, strategy=%s (10 small sends + one 256KB rendezvous):\n\n", *strategy)
	if err := rec.Dump(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(rec.Summary())
	st := sender.Stats()
	fmt.Printf("engine: %d wrappers in %d packets (ratio %.2f), %d rendezvous, %d control piggybacks\n",
		st.EntriesSent, st.OutputPackets, st.AggregationRatio(), st.RdvCompleted, st.CtrlPiggybacked)
}
