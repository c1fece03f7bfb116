// Command nmad-sim runs declarative cluster workload scenarios: YAML
// files describing a machine, a timeline of workload phases, mid-run
// events (rail degradation, outages, node slowdowns, credit squeezes)
// and assertions over the outcome.
//
// Usage:
//
//	nmad-sim run scenario.yaml...            # run, print reports
//	nmad-sim run -timeline s.yaml            # also every node's scheduling timeline
//	nmad-sim run -chrome out.json s.yaml     # that timeline as Chrome trace-event JSON
//	nmad-sim run -record out.jsonl s.yaml    # also capture the offered load
//	nmad-sim run -v s.yaml                   # stream phase/event progress
//	nmad-sim validate scenario.yaml...       # parse + validate only
//	nmad-sim list scenarios/                 # one line per scenario in a dir
//
// `run` executes each scenario and prints its report; any assertion
// failure, incomplete phase or engine error makes the exit status 1.
// `-timeline` follows each report with every node's scheduling decisions
// in time order, then their per-kind counts; `-chrome` writes them for
// chrome://tracing or Perfetto. `-record` writes the load for
// nmad-replay, stamped with the scenario name and fault seed. `-chrome`
// and `-record` take one scenario. `validate` classifies every mistake
// in each file (syntax, schema, unknown action, bad target, overlapping
// phases, assertion on an undeclared checkpoint, ...) without running.
//
// Exit status: 0 all good, 1 scenario failures, 2 usage or load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"nmad"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "validate":
		os.Exit(cmdValidate(os.Args[2:]))
	case "list":
		os.Exit(cmdList(os.Args[2:]))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: nmad-sim <command> [flags] args...

  run [-v] [-timeline] [-record out.jsonl] [-chrome out.json] scenario.yaml...
                                   run scenarios, print reports (and timelines)
  validate scenario.yaml...        parse and validate only
  list dir                         one line per scenario in a directory`)
	os.Exit(2)
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	record := fs.String("record", "", "capture the offered load into this JSONL recording (single scenario only)")
	timeline := fs.Bool("timeline", false, "print every node's scheduling timeline and its per-kind counts after each report")
	chrome := fs.String("chrome", "", "write the scheduling timeline as Chrome trace-event JSON to this file (single scenario only)")
	verbose := fs.Bool("v", false, "stream phase/event progress while running")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	if (*record != "" || *chrome != "") && fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "nmad-sim: -record and -chrome take exactly one scenario (one file per run)")
		return 2
	}

	status := 0
	for _, path := range fs.Args() {
		sc, err := nmad.LoadScenario(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmad-sim: %v\n", err)
			return 2
		}
		cfg := nmad.ScenarioConfig{}
		if *verbose {
			cfg.Verbose = os.Stdout
		}
		if *record != "" {
			cfg.Record = nmad.NewRecording()
		}
		if *timeline || *chrome != "" {
			cfg.Trace = nmad.NewTracer()
		}
		rep, err := nmad.RunScenario(sc, cfg)
		if rep != nil {
			rep.Write(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmad-sim: %v\n", err)
			status = 1
		}
		if *timeline {
			if err := cfg.Trace.Dump(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "nmad-sim: writing the timeline: %v\n", err)
				return 2
			}
			fmt.Println(cfg.Trace.Summary())
		}
		if *record != "" {
			if !writeFile(*record, cfg.Record.Write) {
				return 2
			}
			fmt.Printf("recorded %d operations to %s (scenario %s, seed %s)\n",
				cfg.Record.Len(), *record, cfg.Record.Meta("scenario"), cfg.Record.Meta("seed"))
		}
		if *chrome != "" {
			if !writeFile(*chrome, cfg.Trace.WriteChrome) {
				return 2
			}
			fmt.Printf("wrote %d events to %s\n", cfg.Trace.Total(), *chrome)
		}
	}
	return status
}

// writeFile creates path and fills it through write, reporting on stderr
// any error of the create, the write or the close.
func writeFile(path string, write func(io.Writer) error) bool {
	f, err := os.Create(path)
	if err == nil {
		err = errors.Join(write(f), f.Close())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmad-sim: writing %s: %v\n", path, err)
		return false
	}
	return true
}

func cmdValidate(args []string) int {
	if len(args) == 0 {
		usage()
	}
	status := 0
	for _, path := range args {
		if _, err := nmad.LoadScenario(path); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			status = 1
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	return status
}

func cmdList(args []string) int {
	if len(args) != 1 {
		usage()
	}
	scs, bad := nmad.ListScenarioDir(args[0])
	for _, sc := range scs {
		tenants := ""
		if len(sc.Tenants) > 0 {
			tenants = fmt.Sprintf(", %d tenants", len(sc.Tenants))
		}
		fmt.Printf("%-24s %d nodes, %d phases, %d events, %d assertions%s  %s\n",
			sc.Name, sc.Cluster.Nodes, len(sc.Phases), len(sc.Events), len(sc.Assertions), tenants, sc.Description)
	}
	status := 0
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, bad[name])
		status = 1
	}
	return status
}
