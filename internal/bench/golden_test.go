package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every figure is virtual time, so its JSON is identical on every run
// and every machine: the committed goldens are the trajectory (git log
// -p on the directory) and any byte of drift is an engine decision that
// changed. -update regenerates them from the current engine:
//
//	go test ./internal/bench -run Golden -update
//
// -slow adds slowFigure, in either mode.
var (
	update = flag.Bool("update", false, "rewrite the golden figure files")
	slow   = flag.Bool("slow", false, "include the figures too slow for go test ./...")
)

const goldenDir = "testdata/figures"

// slowFigure is skipped without -slow: it spends about 30 s of host time
// (a shared 2-core Xeon), most of it in its two 1024-rank allgather points.
// CI's faults job, which already owns the 1024-node lossy runs, checks it.
const slowFigure = "scale-nodes"

func goldenPath(id string) string { return filepath.Join(goldenDir, id+".json") }

// A golden is what `nmad-bench -format json -fig <id>` prints: FormatJSON
// plus the final newline.
func TestFiguresGolden(t *testing.T) {
	registered := map[string]bool{}
	for _, info := range Figures() {
		id := info.ID
		registered[id] = true
		t.Run(id, func(t *testing.T) {
			var want []byte
			if !*update {
				var err error
				if want, err = os.ReadFile(goldenPath(id)); err != nil {
					t.Fatalf("figure %s has no golden (regenerate with -update and review the diff): %v", id, err)
				}
			}
			if id == slowFigure && !*slow {
				t.Skipf("takes about 30 s; run: go test ./internal/bench -run 'TestFiguresGolden/%s$' -slow -timeout 30m", id)
			}
			fig, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FormatJSON(fig)
			if err != nil {
				t.Fatal(err)
			}
			got += "\n"
			if *update {
				if err := os.WriteFile(goldenPath(id), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("figure drifted from %s at line %d:\n got: %s\nwant: %s\n(regenerate with -update and review the diff)",
						goldenPath(id), i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("figure drifted from %s: %d lines vs %d (regenerate with -update and review the diff)",
				goldenPath(id), len(gl), len(wl))
		})
	}
	for _, id := range goldenIDs(t) {
		if !registered[id] {
			t.Errorf("%s has no registered figure: delete it, or register the figure", goldenPath(id))
		}
	}
}

func goldenIDs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("read golden directory (regenerate with -update): %v", err)
	}
	var ids []string
	for _, e := range entries {
		ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
	}
	return ids
}

// The report stamps, checked on the goldens (which TestFiguresGolden pins
// to the figures, scale-nodes included): every MAD-MPI series records the
// strategy and engine options it ran with, and a fault-profile stamp
// comes with the seed that reproduces it.
func TestSeriesStamped(t *testing.T) {
	for _, id := range goldenIDs(t) {
		data, err := os.ReadFile(goldenPath(id))
		if err != nil {
			t.Fatal(err)
		}
		var fig Figure
		if err := json.Unmarshal(data, &fig); err != nil {
			t.Fatalf("%s: %v", goldenPath(id), err)
		}
		for _, s := range fig.Series {
			if strings.HasPrefix(s.Label, "MadMPI") && (s.Strategy == "" || s.EngineOptions == "") {
				t.Errorf("figure %s series %q: strategy %q, engine options %q — unstamped", id, s.Label, s.Strategy, s.EngineOptions)
			}
			if (s.Faults != "" && s.Seed != faultSeed) || (s.Faults == "" && s.Seed != 0) {
				t.Errorf("figure %s series %q: fault profile %q with seed stamp %d, want both or neither (seed %d)", id, s.Label, s.Faults, s.Seed, faultSeed)
			}
		}
	}
}
