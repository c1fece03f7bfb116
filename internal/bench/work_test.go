package bench

import (
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"nmad/internal/replay"
	"nmad/internal/sim"
)

const workGolden = "testdata/work.golden"

// Host work is counted, so its golden is exact on every machine: a diff
// names the counters that moved, in the layer that moved them. The
// golden is what `nmad-bench -work` prints; after an intended change
// regenerate it with
//
//	go test ./internal/bench -run WorkGolden -update
//
// and review the diff.
func TestWorkGolden(t *testing.T) {
	got, err := WorkReport("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(workGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatalf("no work golden (regenerate with -update and review the diff): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := workLines(got), workLines(string(want))
	all := maps.Clone(gl)
	maps.Copy(all, wl)
	for _, k := range slices.Sorted(maps.Keys(all)) {
		if gl[k] != wl[k] {
			t.Errorf("%s, %s:\n got: %s\nwant: %s", workGolden, k, gl[k], wl[k])
		}
	}
	t.Log("regenerate with -update and review the diff")
}

// workLines keys each line of a work report by its row and counter, so a
// diff names the counters that moved, not every line after the first.
func workLines(report string) map[string]string {
	lines := map[string]string{}
	row := ""
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(l, "== ") {
			row = strings.Trim(l, "= ")
			lines[row] = l
		} else if f := strings.Fields(l); len(f) > 0 {
			lines[row+" "+f[0]] = l
		}
	}
	return lines
}

// Counting is a bump of an array the caller owns: a counted replay makes
// no allocation an uncounted one does not. (A replay spawns no process,
// so its allocation count repeats exactly, under -race too.)
func TestCountingAllocatesNothing(t *testing.T) {
	rec, err := replay.RecordComposite(replay.CanonicalConfig())
	if err != nil {
		t.Fatal(err)
	}
	wk := new(sim.Work)
	run := func(wk *sim.Work) func() {
		return func() {
			if _, err := replay.Run(rec, replay.Config{Work: wk}); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain, counted := testing.AllocsPerRun(5, run(nil)), testing.AllocsPerRun(5, run(wk))
	if counted != plain {
		t.Errorf("a counted replay makes %.0f allocations, an uncounted one %.0f", counted, plain)
	}
	if wk.Get("sim.events") == 0 {
		t.Error("the counted replay counted no events")
	}
}
