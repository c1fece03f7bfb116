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
	lossy := 0
	for _, kind := range madmpi.CollKinds() {
		for _, algo := range madmpi.CollAlgoNames(kind) {
			for _, n := range []int{2, 5, 8} {
				for _, drop := range []float64{0, 0.01} {
					t.Run(fmt.Sprintf("%s/%s/n=%d/drop=%g", kind, algo, n, drop), func(t *testing.T) {
						r, err := runCollective(kind, algo, n, drop)
						if err != nil {
							t.Error(err)
						}
						lossy += r
						selfChecked(t)
					})
				}
			}
		}
	}
	if lossy == 0 {
		t.Error("the lossy runs retransmitted nothing: they do not exercise the link layer")
	}
}

// runCollective runs one collective of kind, pinned to algo, on n ranks
// over one MX rail dropping packets at rate drop (with reliability on
// when it drops), checks what every rank ends with, and returns the
// engines' retransmissions.
func runCollective(kind madmpi.CollKind, algo string, n int, drop float64) (int, error) {
	const per, elems = 300, 100 // bytes per rank; float64s per reduction
	w, ranks, err := mxRanks(n, drop, drop > 0)
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
	return retransmits(ranks), err
}

// mxRanks builds n MAD-MPI ranks over one MX rail dropping packets at
// rate drop, with reliability on when reliable.
func mxRanks(n int, drop float64, reliable bool) (*sim.World, []*madmpi.MPI, error) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, n, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Reliability = reliable
	if drop > 0 {
		if err := f.SetFaults(simnet.UniformLoss(7, drop, 1)); err != nil {
			return nil, nil, err
		}
	}
	ranks, err := madmpi.InitAll(f, opts)
	return w, ranks, err
}

// retransmits sums the engines' retransmissions.
func retransmits(ranks []*madmpi.MPI) int {
	n := 0
	for _, m := range ranks {
		n += m.Engine().Stats().Retransmits
	}
	return n
}

// typedSide is one end of a typed exchange: count elements of dt, whose
// blocks in the buffer, in type-map order, are written out by hand.
type typedSide struct {
	dt     madmpi.Datatype
	count  int
	blocks [][2]int // offset, length
}

// buffer is a zeroed buffer that holds every block of s.
func (s typedSide) buffer() []byte {
	n := 0
	for _, b := range s.blocks {
		n = max(n, b[0]+b[1])
	}
	return make([]byte, n)
}

// move is what a typed exchange does to the bytes: it gathers from's
// blocks of src and scatters them into to's blocks of dst.
func move(src []byte, from typedSide, dst []byte, to typedSide) {
	var payload []byte
	for _, b := range from.blocks {
		payload = append(payload, src[b[0]:b[0]+b[1]]...)
	}
	for _, b := range to.blocks {
		payload = payload[copy(dst[b[0]:b[0]+b[1]], payload):]
	}
}

// TestTypedChecked runs typed exchanges under the self-checks. Each case
// pairs two layouts of one size: rank 0 sends through the first, rank 1
// receives through the second and sends back through it, and rank 0
// receives into a fresh buffer through the first. Every run is on
// reliable MX, lossless and at 1 % drop, and every byte of both
// receive buffers, gaps included, is checked after every round trip.
func TestTypedChecked(t *testing.T) {
	blocks := func(n int, at func(i int) (off, length int)) [][2]int {
		out := make([][2]int, n)
		for i := range out {
			out[i][0], out[i][1] = at(i)
		}
		return out
	}
	contiguous := func(n int) typedSide {
		return typedSide{madmpi.Contiguous(n, madmpi.Byte), 1, [][2]int{{0, n}}}
	}
	// The paper's Figure 4 layout at count 4: a 64 B block and a 64 KB
	// one, each followed by a 64 B gap; the large blocks go by rendezvous.
	const small, large, gap = 64, 64 << 10, 64
	const pair, elem = small + large, small + gap + large + gap
	paper := madmpi.Resized(madmpi.Hindexed([]int{small, large}, []int{0, small + gap}, madmpi.Byte), elem)
	// A struct of 4 bytes and two elements of a 3-block vector.
	vec := madmpi.Vector(3, 2, 3, madmpi.Byte) // blocks at 0, 3, 6; extent 9
	st := madmpi.Struct([]int{1, 2}, []int{0, 8}, []madmpi.Datatype{madmpi.Contiguous(4, madmpi.Byte), vec})
	cases := []struct {
		name    string
		out, in typedSide
	}{
		{"vector-column", typedSide{madmpi.Vector(16, 1, 8, madmpi.Byte), 1,
			blocks(16, func(i int) (int, int) { return 8 * i, 1 })}, contiguous(16)},
		{"paper-hindexed", typedSide{paper, 4, blocks(8, func(i int) (int, int) {
			if i%2 == 0 {
				return i / 2 * elem, small
			}
			return i/2*elem + small + gap, large
		})}, typedSide{madmpi.Vector(4, pair, pair+32, madmpi.Byte), 1,
			blocks(4, func(i int) (int, int) { return i * (pair + 32), pair })}},
		{"struct", typedSide{st, 3, blocks(21, func(i int) (int, int) {
			e, k := i/7, i%7
			if k == 0 {
				return 26 * e, 4
			}
			return 26*e + 8 + 3*(k-1), 2
		})}, contiguous(48)},
	}
	for _, c := range cases {
		for _, drop := range []float64{0, 0.01} {
			t.Run(fmt.Sprintf("%s/drop=%g", c.name, drop), func(t *testing.T) {
				r, err := runTyped(c.out, c.in, drop)
				if err != nil {
					t.Error(err)
				}
				if drop > 0 && r == 0 {
					t.Error("the lossy run retransmitted nothing: it does not exercise the link layer")
				}
				selfChecked(t)
			})
		}
	}
}

// typedRounds is the number of round trips of one TestTypedChecked run:
// enough for the lossy runs to lose packets.
const typedRounds = 50

// runTyped runs the typed round trips of one TestTypedChecked case and
// returns the engines' retransmissions.
func runTyped(out, in typedSide, drop float64) (int, error) {
	w, ranks, err := mxRanks(2, drop, true)
	if err != nil {
		return 0, err
	}
	src := out.buffer()
	sim.NewRNG(3).Bytes(src)
	mid, back := in.buffer(), out.buffer()
	wantMid, wantBack := in.buffer(), out.buffer()
	move(src, out, wantMid, in)
	move(wantMid, in, wantBack, out)
	g := sim.NewGroup(w)
	g.Go("rank-0", func(p *sim.Proc) error {
		c := ranks[0].CommWorld()
		for r := range typedRounds {
			clear(back)
			if err := c.SendTyped(p, src, out.dt, out.count, 1, 2*r); err != nil {
				return err
			}
			if _, err := c.RecvTyped(p, back, out.dt, out.count, 1, 2*r+1); err != nil {
				return err
			}
			if !bytes.Equal(back, wantBack) {
				return fmt.Errorf("rank 0, round %d: wrong bytes back through %v", r, out.dt)
			}
		}
		return nil
	})
	g.Go("rank-1", func(p *sim.Proc) error {
		c := ranks[1].CommWorld()
		for r := range typedRounds {
			clear(mid)
			if _, err := c.RecvTyped(p, mid, in.dt, in.count, 0, 2*r); err != nil {
				return err
			}
			if !bytes.Equal(mid, wantMid) {
				return fmt.Errorf("rank 1, round %d: wrong bytes through %v", r, in.dt)
			}
			if err := c.SendTyped(p, mid, in.dt, in.count, 0, 2*r+1); err != nil {
				return err
			}
		}
		return nil
	})
	err = g.Run()
	return retransmits(ranks), err
}
