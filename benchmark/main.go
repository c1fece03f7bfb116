// Command benchmark is the repository's benchmark: six workloads over
// the NewMadeleine simulator, each reporting virtual-time results (what
// the engine decides) and machine-normalised host cost (what simulating
// it costs), plus — in a separate traced run — per-layer metrics taken
// from outside, by timing calls into each layer's exported functions and
// reading the counters the program already exposes. See README.md.
//
//	benchmark -workload pingpong-64B -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all six, one result line each)")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs (payload patterns, run order)")
		seconds = flag.Float64("seconds", 10, "how long the timed loop of a run measures")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing the span dump")
		reps    = flag.Int("reps", 0, "fixed number of timed repetitions instead of filling -seconds")
		check   = flag.Bool("check", false, "run the full set twice, ten seeds each, and compare spreads and medians against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	selected := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		selected = []workload{wl}
	}
	if *check {
		os.Exit(runCheck(selected, *seed, *seconds))
	}

	ok := true
	for _, wl := range selected {
		cfg := runConfig{
			seed: *seed, seconds: *seconds, reps: *reps, scale: 1, trace: *trace != 0,
			spans: ".bench_build/spans-" + wl.name + ".json",
		}
		out, err := runWorkload(wl, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		}
		if out == nil {
			os.Exit(1)
		}
		report(os.Stdout, out, cfg)
		ok = ok && err == nil && out.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name and unit, then the result line.
func report(w io.Writer, out *outcome, cfg runConfig) {
	fmt.Fprintf(w, "# workload %s  seed %d  trace %v\n", out.workload, cfg.seed, cfg.trace)
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%-20s %-36s %16.6f %s\n", out.workload, m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	share := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "%-20s %-36s %16.6f ratio (%d of %d operations)\n", out.workload, "failed_ops_share", share, out.failed, out.attempted)
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
