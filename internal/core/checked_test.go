package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"nmad/internal/bench"
	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/replay"
	"nmad/internal/scenario"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// These tests run the repository's larger workloads through this test
// binary, so that the engine self-checks of selfcheck_test.go watch every
// world they build: the scenario corpus, the canonical recording under
// every strategy, the lossy composite, the 256-node ring replay, the
// figures and every MAD-MPI collective algorithm. What each workload prints is pinned by its own package; here
// it only has to run clean.

var slow = flag.Bool("slow", false, "also check the figures too slow for go test ./...")

// slowFigure is the figure left out without -slow (see internal/bench).
const slowFigure = "scale-nodes"

// selfChecked fails t with every self-check violation its workload
// reported.
func selfChecked(t *testing.T) {
	t.Helper()
	test, _, _ := strings.Cut(t.Name(), "/")
	for _, msg := range core.TakeSelfCheck(test) {
		t.Error(msg)
	}
}

func TestCorpusChecked(t *testing.T) {
	scs, bad := scenario.ListDir("../../scenarios")
	for name, err := range bad {
		t.Errorf("%s: %v", name, err)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			if _, err := scenario.Run(sc, scenario.Config{}); err != nil {
				t.Error(err)
			}
			selfChecked(t)
		})
	}
}

// TestCanonicalRecordingChecked replays the canonical recording under
// every registered strategy: aggregation, splitting, priorities, the
// adaptive feedback loop and its rendezvous plans.
func TestCanonicalRecordingChecked(t *testing.T) {
	f, err := os.Open("../replay/testdata/canonical.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.ReadRecording(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"default", "aggreg", "split", "prio", "adaptive"} {
		t.Run(strat, func(t *testing.T) {
			if _, err := replay.Run(rec, replay.Config{Strategy: strat}); err != nil {
				t.Error(err)
			}
			selfChecked(t)
		})
	}
}

// TestLossyCompositeChecked records the composite workload on a fabric
// that drops one packet in ten, with reliable engines, and replays it:
// link frames are retained and retransmitted, and resequencing holds
// parked arrivals across drops.
func TestLossyCompositeChecked(t *testing.T) {
	cfg := replay.CanonicalConfig()
	fp := simnet.UniformLoss(42, 0.10, 1)
	cfg.Faults = &fp
	cfg.Reliability = true
	rec, err := replay.RecordComposite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Run(rec, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	selfChecked(t)
	retransmits := 0
	for _, s := range res.Stats {
		retransmits += s.Retransmits
	}
	if retransmits == 0 {
		t.Error("the lossy replay retransmitted nothing: it does not exercise the link layer")
	}
}

func TestRingReplayChecked(t *testing.T) {
	rec, err := replay.RecordCompositeRing(replay.RingConfig(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Run(rec, replay.Config{}); err != nil {
		t.Error(err)
	}
	selfChecked(t)
}

func TestFiguresChecked(t *testing.T) {
	for _, info := range bench.Figures() {
		t.Run(info.ID, func(t *testing.T) {
			if info.ID == slowFigure && !*slow {
				t.Skipf("run: go test ./internal/core -run 'TestFiguresChecked/%s$' -slow -timeout 30m", info.ID)
			}
			if _, err := bench.Run(info.ID); err != nil {
				t.Error(err)
			}
			selfChecked(t)
		})
	}
}

// TestCollectivesChecked runs every collective kind under every built-in
// algorithm at 2, 5 and 8 ranks, lossless and on a rail dropping 1 % of
// packets with reliability on, each rank checking the exact bytes (or
// sums) it ends with. Small segments make the pipelined algorithms
// segment, and roots other than rank 0 rotate the trees.
func TestCollectivesChecked(t *testing.T) {
	retransmits := 0
	for _, kind := range madmpi.CollKinds() {
		for _, algo := range madmpi.CollAlgoNames(kind) {
			for _, n := range []int{2, 5, 8} {
				for _, drop := range []float64{0, 0.01} {
					t.Run(fmt.Sprintf("%s/%s/n=%d/drop=%g", kind, algo, n, drop), func(t *testing.T) {
						r, err := runCollective(kind, algo, n, drop)
						if err != nil {
							t.Error(err)
						}
						retransmits += r
						selfChecked(t)
					})
				}
			}
		}
	}
	if retransmits == 0 {
		t.Error("the lossy runs retransmitted nothing: they do not exercise the link layer")
	}
}

// runCollective runs one collective of kind, pinned to algo, on n ranks
// over one MX rail dropping packets at rate drop (with reliability on
// when it drops), checks what every rank ends with, and returns the
// engines' retransmissions.
func runCollective(kind madmpi.CollKind, algo string, n int, drop float64) (int, error) {
	const per, elems = 300, 100 // bytes per rank; float64s per reduction
	w := sim.NewWorld()
	f := simnet.NewFabric(w, n, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		return 0, err
	}
	opts := core.DefaultOptions()
	if drop > 0 {
		opts.Reliability = true
		if err := f.SetFaults(simnet.UniformLoss(7, drop, 1)); err != nil {
			return 0, err
		}
	}
	ranks, err := madmpi.InitAll(f, opts)
	if err != nil {
		return 0, err
	}
	root := n / 2
	// pattern is the block rank from sends to rank to.
	pattern := func(from, to int) []byte {
		b := make([]byte, per)
		for i := range b {
			b[i] = byte(from*31 + to*7 + i)
		}
		return b
	}
	g := sim.NewGroup(w)
	for _, m := range ranks {
		if err := m.ForceCollAlgo(kind, algo); err != nil {
			return 0, err
		}
		m.SetCollSegment(128)
		me, c := m.Rank(), m.CommWorld()
		g.Go(fmt.Sprintf("rank-%d", me), func(p *sim.Proc) error {
			var got, want []byte // the bytes me ends with, and those it should
			var err error
			switch kind {
			case madmpi.CollBarrier:
				err = c.Barrier(p)
			case madmpi.CollBcast:
				got, want = pattern(me, 0), pattern(root, 0)
				if me == root {
					got = pattern(root, 0)
				}
				err = c.Bcast(p, got, root)
			case madmpi.CollGather, madmpi.CollAllgather:
				got = make([]byte, n*per)
				for r := range n {
					want = append(want, pattern(r, 0)...)
				}
				if kind == madmpi.CollAllgather {
					err = c.Allgather(p, pattern(me, 0), got)
				} else if err = c.Gather(p, pattern(me, 0), got, root); me != root {
					got, want = nil, nil
				}
			case madmpi.CollScatter:
				var all []byte
				for r := range n {
					all = append(all, pattern(root, r)...)
				}
				got, want = make([]byte, per), pattern(root, me)
				err = c.Scatter(p, all, got, root)
			case madmpi.CollAlltoall:
				var out []byte
				for r := range n {
					out = append(out, pattern(me, r)...)
					want = append(want, pattern(r, me)...)
				}
				got = make([]byte, n*per)
				err = c.Alltoall(p, out, got)
			case madmpi.CollReduce, madmpi.CollAllreduce:
				in, out := make([]float64, elems), make([]float64, elems)
				for i := range in {
					in[i] = float64(me + i%5)
				}
				if kind == madmpi.CollReduce {
					err = c.Reduce(p, in, out, madmpi.OpSum, root)
				} else {
					err = c.Allreduce(p, in, out, madmpi.OpSum)
				}
				if kind == madmpi.CollAllreduce || me == root {
					for i, v := range out {
						if sum := float64(i%5*n + n*(n-1)/2); v != sum {
							return fmt.Errorf("rank %d: element %d = %g, want %g", me, i, v, sum)
						}
					}
				}
			}
			if err != nil {
				return fmt.Errorf("rank %d: %w", me, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: wrong bytes", me)
			}
			return nil
		})
	}
	err = g.Run()
	retransmits := 0
	for _, m := range ranks {
		retransmits += m.Engine().Stats().Retransmits
	}
	return retransmits, err
}
