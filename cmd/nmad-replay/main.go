// Command nmad-replay re-drives a recorded offered load (written by
// nmad-trace -record, nmad-sim run -record or nmad.WithRecording) through
// the engine: every recorded submission is re-issued at its recorded
// virtual time, on the recorded topology, under the recorded strategy —
// or under a different one, for exact A/B comparisons on identical load.
//
// Usage:
//
//	nmad-replay recording.jsonl                     # replay as recorded
//	nmad-replay -strategy prio recording.jsonl      # one strategy override
//	nmad-replay -ab default,aggreg recording.jsonl  # side-by-side delta table
//	nmad-replay -credits 8 -strategy aggreg recording.jsonl
//
// The -ab table reports, per strategy: completion time, wire bytes,
// physical packet count, wrapper entries, aggregation ratio, and the
// delta of completion time and wire bytes against the first strategy.
//
// Exit status 1 on replay errors, 2 on usage/parse errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nmad"
)

func main() {
	strategy := flag.String("strategy", "",
		"replay under this strategy ("+strings.Join(nmad.Strategies(), "|")+"); empty = as recorded")
	ab := flag.String("ab", "", "comma-separated strategies to A/B: replay the load under each and print a delta table")
	credits := flag.Int("credits", -1, "override the credit budget on every node (-1 = as recorded)")
	grants := flag.Int("grants", -1, "override the rendezvous grant cap on every node (-1 = as recorded)")
	lossless := flag.Bool("lossless", false, "ignore the recorded fault profile and replay on a lossless fabric")
	flag.Parse()

	if flag.NArg() != 1 || (*strategy != "" && *ab != "") {
		fmt.Fprintln(os.Stderr, "usage: nmad-replay [-strategy s | -ab s1,s2,...] [-credits n] [-grants n] [-lossless] recording.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmad-replay: %v\n", err)
		os.Exit(2)
	}
	rec, err := nmad.ReadRecording(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmad-replay: %v\n", err)
		os.Exit(2)
	}
	hdr := rec.Header()
	rails := make([]string, 0, len(hdr.Rails))
	for _, p := range hdr.Rails {
		rails = append(rails, p.Name)
	}
	faults := ""
	if hdr.Faults != nil {
		faults = fmt.Sprintf(", faulty (seed %d)", hdr.Faults.Seed)
	}
	fmt.Printf("recording: %d ops, %d nodes, rails [%s], format v%d%s\n",
		rec.Len(), hdr.Nodes, strings.Join(rails, " "), hdr.Version, faults)

	base := nmad.ReplayConfig{Strategy: *strategy, DisableFaults: *lossless}
	if *credits >= 0 {
		base.Credits = credits
	}
	if *grants >= 0 {
		base.MaxGrants = grants
	}

	var results []*nmad.ReplayResult
	if *ab != "" {
		for _, s := range strings.Split(*ab, ",") {
			cfg := base
			cfg.Strategy = strings.TrimSpace(s)
			res, err := nmad.Replay(rec, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nmad-replay: strategy %s: %v\n", cfg.Strategy, err)
				os.Exit(1)
			}
			results = append(results, res)
		}
	} else {
		res, err := nmad.Replay(rec, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmad-replay: %v\n", err)
			os.Exit(1)
		}
		results = append(results, res)
	}

	fmt.Printf("\n%-10s  %14s  %12s  %8s  %8s  %7s  %7s\n",
		"strategy", "completion", "wire-bytes", "packets", "entries", "aggreg", "errors")
	ref := results[0]
	for i, r := range results {
		delta := ""
		if i > 0 && ref.Completion > 0 {
			delta = fmt.Sprintf("  (time %+.1f%%, wire %+.1f%%)",
				100*(float64(r.Completion)/float64(ref.Completion)-1),
				100*(float64(r.WireBytes())/float64(ref.WireBytes())-1))
		}
		fmt.Printf("%-10s  %14s  %12d  %8d  %8d  %7.2f  %7d%s\n",
			r.Strategy, r.Completion, r.WireBytes(), r.Packets(), r.Entries(),
			r.AggregationRatio(), r.RequestErrors, delta)
	}
}
