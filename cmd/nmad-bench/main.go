// Command nmad-bench regenerates the figures and tables of the paper's
// evaluation section (§5) plus the ablations and scale workloads, in
// deterministic virtual time.
//
// Usage:
//
//	nmad-bench -list              # figure ids with one-line descriptions
//	nmad-bench -fig 2a            # one figure, aligned table on stdout
//	nmad-bench -fig all           # everything (scale-nodes alone takes minutes)
//	nmad-bench -fig incast,5.1 -format json  # machine-readable
//
// Every report is stamped with the strategy and engine options each
// MAD-MPI series ran with; the lossy figures additionally stamp the
// fault-injection seed and profile into each series. With -format json
// and more than one figure the output is a single JSON array; one
// figure's JSON output is byte-for-byte its committed golden
// (internal/bench/testdata/figures/<id>.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nmad/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "figure id(s, comma-separated) to regenerate, or 'all'")
	format := flag.String("format", "table", "output format: table or json")
	list := flag.Bool("list", false, "list figure ids with descriptions and exit")
	flag.Parse()
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "nmad-bench: unknown format %q (table or json)\n", *format)
		os.Exit(2)
	}

	if *list {
		w := 0
		infos := bench.Figures()
		for _, info := range infos {
			if len(info.ID) > w {
				w = len(info.ID)
			}
		}
		for _, info := range infos {
			fmt.Printf("%-*s  %s\n", w, info.ID, info.Desc)
		}
		return
	}
	if *fig == "" {
		flag.Usage()
		os.Exit(2)
	}

	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = bench.FigureIDs()
	}
	var jsons []string
	for _, id := range ids {
		result, err := bench.Run(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmad-bench: %v\n", err)
			os.Exit(1)
		}
		switch *format {
		case "json":
			js, err := bench.FormatJSON(result)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nmad-bench: %v\n", err)
				os.Exit(1)
			}
			jsons = append(jsons, js)
		default:
			fmt.Println(bench.FormatTable(result))
		}
	}
	if *format == "json" {
		// One figure prints bare; several print as a JSON array so the
		// output stays a single valid document.
		if len(jsons) == 1 {
			fmt.Println(jsons[0])
		} else {
			fmt.Printf("[\n%s\n]\n", strings.Join(jsons, ",\n"))
		}
	}
}
