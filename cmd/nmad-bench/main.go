// Command nmad-bench regenerates the figures and tables of the paper's
// evaluation section (§5) plus the ablations and scale workloads, in
// deterministic virtual time.
//
// Usage:
//
//	nmad-bench -list              # figure ids with one-line descriptions
//	nmad-bench -fig 2a            # one figure, aligned table on stdout
//	nmad-bench -fig all           # everything
//	nmad-bench -fig incast,5.1 -format json  # machine-readable
//	nmad-bench -work -fig 3a      # host work the figure cost, per layer
//	nmad-bench -work              # the work golden's runs (from the repository root)
//
// Every report is stamped with the strategy and engine options each
// MAD-MPI series ran with; the lossy figures additionally stamp the
// fault-injection seed and profile into each series. With -format json
// and more than one figure the output is a single JSON array; one
// figure's JSON output is byte-for-byte its committed golden
// (internal/bench/testdata/figures/<id>.json).
//
// With -work, a figure prints instead the host work its runs cost: the
// counters each layer bumps (sim events, elections, frames made and
// reused, ...), totalled over every point and per engine op. The counts
// are the same on every machine, and print as a table only (-work with
// -format json is a usage error). Without -fig, -work runs the set of
// runs internal/bench/testdata/work.golden pins and prints that file's
// bytes; it reads the scenario corpus from scenarios/, so run it from the
// repository root.
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
	work := flag.Bool("work", false, "print the host work each figure costs instead of the figure")
	flag.Parse()
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "nmad-bench: unknown format %q (table or json)\n", *format)
		os.Exit(2)
	}
	if *work && *format != "table" {
		fmt.Fprintf(os.Stderr, "nmad-bench: -work prints a table only, not -format %s\n", *format)
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
	if *work && *fig == "" {
		report, err := bench.WorkReport("scenarios")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmad-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(report)
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
	if *work {
		for _, id := range ids {
			wk, err := bench.Work(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(os.Stderr, "nmad-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("== %s ==\n%s", id, bench.FormatWork(wk))
		}
		return
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
