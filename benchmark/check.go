package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// spec mirrors BENCHMARK.json, the contract the benchmark is run under.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the root of the checkout, whether
// the benchmark runs from there or from its own directory.
func loadSpec() (*spec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// runCheck is the acceptance test of the benchmark itself: it runs every
// selected workload in two sets of ten fresh processes, a different
// seed per run and the same seeds in both sets, and holds each
// end-to-end metric to the rule the benchmark is accepted by — the
// spread of a set (first to third quartile, as a share of the median)
// stays within the metric's bound, setup_s excepted, and the second
// set's median is not worse than the first's by more than the bound.
// It returns the process exit code.
func runCheck(selected []workload, seed uint64, seconds float64) int {
	const runs = 10
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -check: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -check: %v\n", err)
		return 2
	}
	violations := 0
	fmt.Printf("%-20s %-24s %14s %14s %8s %8s %8s %6s\n",
		"workload", "metric", "median-1", "median-2", "spread-1", "spread-2", "worse", "bound")
	for _, wl := range selected {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				res, err := runChild(self, wl.name, seed+uint64(r), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: -check: %s seed %d: %v\n", wl.name, seed+uint64(r), err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: -check: %s seed %d: %d of %d operations failed\n",
						wl.name, seed+uint64(r), res.Failed, res.Attempted)
					violations++
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != runs || len(b) != runs {
				fmt.Printf("%-20s %-24s missing from the output\n", wl.name, m.Name)
				violations++
				continue
			}
			ma, mb := median(a), median(b)
			sa, sb := spread(a), spread(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict += " SPREAD"
			}
			if worse > m.Bound {
				verdict += " MEDIAN"
			}
			if verdict != "" {
				violations++
			}
			fmt.Printf("%-20s %-24s %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%% %5.1f%%%s\n",
				wl.name, m.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if violations > 0 {
		fmt.Printf("%d violation(s)\n", violations)
		return 1
	}
	return 0
}

// runChild runs one end-to-end measurement in a fresh process, as the
// benchmark is run for real, and parses its result line.
func runChild(self, workload string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
