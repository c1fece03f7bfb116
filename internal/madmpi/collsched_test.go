package madmpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// jobCfg is job with a per-rank MPI configuration hook (forcing
// algorithms, segment sizes) run before any rank body starts.
func jobCfg(t *testing.T, size int, cfg func(m *MPI), body func(p *sim.Proc, m *MPI)) {
	t.Helper()
	w := sim.NewWorld()
	f := simnet.NewFabric(w, size, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		m, err := Init(f, simnet.NodeID(i), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if cfg != nil {
			cfg(m)
		}
		w.Spawn("rank", func(p *sim.Proc) { body(p, m) })
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceAlgorithmsElementExact is the randomized property test of
// the pipelined collectives: across algorithms, comm sizes 2..8, segment
// sizes and vector lengths (including lengths not divisible by the comm
// size or the segment), Allreduce must produce the element-exact
// reference reduction on every rank. Ranks enter the collective at
// adversarially staggered times to shake the schedule interleavings; the
// operand values are small integers so every association order is exact
// in float64.
func TestAllreduceAlgorithmsElementExact(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 40; trial++ {
		n := rng.Range(2, 8)
		elems := rng.Range(0, 300)
		segElems := []int{8, 33, 512}[rng.Range(0, 2)]
		algo := []string{"tree", "ring"}[rng.Range(0, 1)]
		op, opName := Op(OpSum), "sum"
		if rng.Range(0, 1) == 1 {
			op, opName = OpMax, "max"
		}
		label := fmt.Sprintf("trial %d: n=%d elems=%d seg=%d algo=%s op=%s",
			trial, n, elems, segElems, algo, opName)

		// Deterministic per-rank inputs and the serial reference.
		in := make([][]float64, n)
		want := make([]float64, elems)
		for r := 0; r < n; r++ {
			in[r] = make([]float64, elems)
			for i := range in[r] {
				in[r][i] = float64(rng.Range(-3, 4))
			}
		}
		for i := range want {
			want[i] = in[0][i]
			for r := 1; r < n; r++ {
				want[i] = op(want[i], in[r][i])
			}
		}
		stagger := make([]int, n)
		for r := range stagger {
			stagger[r] = rng.Range(0, 120)
		}

		jobCfg(t, n,
			func(m *MPI) {
				if err := m.ForceCollAlgo(CollAllreduce, algo); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				m.SetCollSegment(segElems * 8)
			},
			func(p *sim.Proc, m *MPI) {
				me := m.Rank()
				p.Sleep(sim.Time(stagger[me]) * sim.Microsecond)
				out := make([]float64, elems)
				if err := m.CommWorld().Allreduce(p, in[me], out, op); err != nil {
					t.Errorf("%s: rank %d: %v", label, me, err)
					return
				}
				for i := range want {
					if out[i] != want[i] {
						t.Errorf("%s: rank %d element %d = %g, want %g", label, me, i, out[i], want[i])
						return
					}
				}
			})
		if t.Failed() {
			return
		}
	}
}

// TestBcastAlgorithms checks both broadcast algorithms deliver exactly,
// across roots and payload sizes that do not divide the segment.
func TestBcastAlgorithms(t *testing.T) {
	for _, algo := range []string{"binomial", "pipeline"} {
		for _, size := range []int{1, 777, 40 << 10} {
			payload := make([]byte, size)
			sim.NewRNG(uint64(size)).Bytes(payload)
			root := size % 5
			jobCfg(t, 5,
				func(m *MPI) {
					if err := m.ForceCollAlgo(CollBcast, algo); err != nil {
						t.Fatal(err)
					}
					m.SetCollSegment(1 << 10)
				},
				func(p *sim.Proc, m *MPI) {
					buf := make([]byte, size)
					if m.Rank() == root {
						copy(buf, payload)
					}
					if err := m.CommWorld().Bcast(p, buf, root); err != nil {
						t.Errorf("%s size %d: %v", algo, size, err)
						return
					}
					if !bytes.Equal(buf, payload) {
						t.Errorf("%s size %d: rank %d corrupted payload", algo, size, m.Rank())
					}
				})
		}
	}
}

// TestReduceAlgorithms checks both reduce algorithms against the serial
// reference, at a non-zero root.
func TestReduceAlgorithms(t *testing.T) {
	const n, elems, root = 6, 513, 2
	for _, algo := range []string{"binomial", "pipeline"} {
		jobCfg(t, n,
			func(m *MPI) {
				if err := m.ForceCollAlgo(CollReduce, algo); err != nil {
					t.Fatal(err)
				}
				m.SetCollSegment(256)
			},
			func(p *sim.Proc, m *MPI) {
				me := m.Rank()
				vec := make([]float64, elems)
				for i := range vec {
					vec[i] = float64(me + i%7)
				}
				out := make([]float64, elems)
				if err := m.CommWorld().Reduce(p, vec, out, OpSum, root); err != nil {
					t.Errorf("%s: %v", algo, err)
					return
				}
				if me != root {
					return
				}
				for i := range out {
					want := 0.0
					for r := 0; r < n; r++ {
						want += float64(r + i%7)
					}
					if out[i] != want {
						t.Errorf("%s: element %d = %g, want %g", algo, i, out[i], want)
						return
					}
				}
			})
	}
}

// TestAllgatherAlgorithms checks the ring against the fused gather-bcast.
func TestAllgatherAlgorithms(t *testing.T) {
	for _, algo := range []string{"ring", "gather-bcast"} {
		jobCfg(t, 5,
			func(m *MPI) {
				if err := m.ForceCollAlgo(CollAllgather, algo); err != nil {
					t.Fatal(err)
				}
			},
			func(p *sim.Proc, m *MPI) {
				me := []byte{byte(10 + m.Rank()), byte(20 + m.Rank())}
				all := make([]byte, 10)
				if err := m.CommWorld().Allgather(p, me, all); err != nil {
					t.Errorf("%s: %v", algo, err)
					return
				}
				for r := 0; r < 5; r++ {
					if all[2*r] != byte(10+r) || all[2*r+1] != byte(20+r) {
						t.Errorf("%s: rank %d slot %d = %v", algo, m.Rank(), r, all[2*r:2*r+2])
					}
				}
			})
	}
}

// TestAlltoallPairwise checks the round-chained pairwise exchange.
func TestAlltoallPairwise(t *testing.T) {
	const n = 6
	jobCfg(t, n,
		func(m *MPI) {
			if err := m.ForceCollAlgo(CollAlltoall, "pairwise"); err != nil {
				t.Fatal(err)
			}
		},
		func(p *sim.Proc, m *MPI) {
			send := make([]byte, n)
			for i := range send {
				send[i] = byte(10*m.Rank() + i)
			}
			recv := make([]byte, n)
			if err := m.CommWorld().Alltoall(p, send, recv); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < n; r++ {
				if recv[r] != byte(10*r+m.Rank()) {
					t.Errorf("slot %d = %d, want %d", r, recv[r], 10*r+m.Rank())
				}
			}
		})
}

// TestCollTagEpochExtension drives the per-communicator collective
// sequence across the epoch boundary: where the seed silently wrapped
// and reused live tags after 2^20 collectives, the engine must move to a
// fresh tag lane and keep collectives exact.
func TestCollTagEpochExtension(t *testing.T) {
	start := uint64(collSeqWindow - 2)
	jobCfg(t, 3, nil, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		c.collSeq = start // all ranks agree, as if 2^22-2 collectives ran
		for k := 0; k < 5; k++ {
			out := make([]float64, 3)
			in := []float64{float64(m.Rank()), 1, 2}
			if err := c.Allreduce(p, in, out, OpSum); err != nil {
				t.Errorf("collective %d across the epoch boundary: %v", k, err)
				return
			}
			if out[0] != 3 || out[1] != 3 || out[2] != 6 {
				t.Errorf("collective %d across the epoch boundary: got %v", k, out)
				return
			}
		}
		if c.collSeq != start+5 {
			t.Errorf("collSeq = %d, want %d", c.collSeq, start+5)
		}
	})
	// The lane must differ across the boundary instead of wrapping.
	boundary := &Comm{id: 1}
	pre, err := boundary.collTags(start)
	if err != nil {
		t.Fatal(err)
	}
	post, err := boundary.collTags(collSeqWindow)
	if err != nil {
		t.Fatal(err)
	}
	if pre>>32 == post>>32 {
		t.Errorf("tag lane did not advance across the epoch boundary: %#x vs %#x", pre, post)
	}
}

// TestRootValidationKeepsSeqLockstep: when every rank calls a rooted
// collective and only the root's buffer is invalid, the root errors but
// the other ranks cannot know — the sequence slot must be consumed on
// every rank anyway, so the next collective still lines up its tag
// lanes instead of hanging.
func TestRootValidationKeepsSeqLockstep(t *testing.T) {
	jobCfg(t, 3, nil, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		err := c.Gather(p, []byte{1, 2}, make([]byte, 5), 0) // root buffer short
		if m.Rank() == 0 {
			if !errors.Is(err, ErrCollBuffer) {
				t.Errorf("root: err = %v, want ErrCollBuffer", err)
			}
		} else if err != nil {
			t.Errorf("leaf rank %d: %v", m.Rank(), err)
		}
		// The very next collective must still be exact on every rank.
		out := make([]float64, 1)
		if err := c.Allreduce(p, []float64{2}, out, OpSum); err != nil || out[0] != 6 {
			t.Errorf("rank %d: allreduce after asymmetric validation error: %v, out=%v", m.Rank(), err, out)
		}
	})
}

// TestCollTagExhaustion: the genuinely unrecoverable end of the tag
// space (2^29 collectives on one communicator) is a typed error, not a
// silent reuse.
func TestCollTagExhaustion(t *testing.T) {
	jobCfg(t, 2, nil, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		c.collSeq = uint64(collMaxEpoch) * collSeqWindow
		err := c.Barrier(p)
		if !errors.Is(err, ErrCollTags) {
			t.Errorf("exhausted tag space: err = %v, want ErrCollTags", err)
		}
		// A fresh communicator has a fresh sequence space.
		d := c.Dup()
		if err := d.Barrier(p); err != nil {
			t.Errorf("dup after exhaustion: %v", err)
		}
	})
}

// TestCollectiveBufferValidation: wrong buffer lengths are typed
// ErrCollBuffer errors, not slice panics.
func TestCollectiveBufferValidation(t *testing.T) {
	jobCfg(t, 3, nil, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		me := m.Rank()
		send := []byte{1, 2}

		// Root-side validation errors produce no traffic but do consume
		// a sequence slot (the lockstep invariant), so the root probes
		// them on a dup'd communicator the other ranks never use.
		probe := c.Dup()
		if me == 0 {
			for _, tc := range []struct {
				name string
				err  error
			}{
				{"gather short", probe.Gather(p, send, make([]byte, 5), 0)},
				{"gather long", probe.Gather(p, send, make([]byte, 7), 0)},
				{"scatter short", probe.Scatter(p, make([]byte, 5), make([]byte, 2), 0)},
			} {
				if !errors.Is(tc.err, ErrCollBuffer) {
					t.Errorf("%s: err = %v, want ErrCollBuffer", tc.name, tc.err)
				}
			}
		}
		// Symmetric validations every rank performs.
		if err := c.Allgather(p, send, make([]byte, 5)); !errors.Is(err, ErrCollBuffer) {
			t.Errorf("allgather short: err = %v, want ErrCollBuffer", err)
		}
		if err := c.Alltoall(p, make([]byte, 4), make([]byte, 4)); !errors.Is(err, ErrCollBuffer) {
			t.Errorf("alltoall non-divisible: err = %v, want ErrCollBuffer", err)
		}
		if err := c.Alltoall(p, make([]byte, 6), make([]byte, 5)); !errors.Is(err, ErrCollBuffer) {
			t.Errorf("alltoall short recv: err = %v, want ErrCollBuffer", err)
		}
		if err := c.Allreduce(p, []float64{1, 2}, make([]float64, 1), OpSum); !errors.Is(err, ErrCollBuffer) {
			t.Errorf("allreduce short recv: err = %v, want ErrCollBuffer", err)
		}
		if me == 1 {
			if err := probe.Reduce(p, []float64{1, 2}, nil, OpSum, 1); !errors.Is(err, ErrCollBuffer) {
				t.Errorf("reduce short recv at root: err = %v, want ErrCollBuffer", err)
			}
		}
		// After all the rejected calls, a real collective still works:
		// the world comm's sequence advanced evenly (the symmetric
		// rejections above consumed nothing; the asymmetric ones were
		// confined to the probe comm).
		out := make([]float64, 1)
		if err := c.Allreduce(p, []float64{1}, out, OpSum); err != nil || out[0] != 3 {
			t.Errorf("allreduce after validation errors: %v, out=%v", err, out)
		}
	})
}

// TestSingleRankCollectives: every collective degenerates correctly on a
// one-rank communicator.
func TestSingleRankCollectives(t *testing.T) {
	jobCfg(t, 1, nil, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if err := c.Barrier(p); err != nil {
			t.Error(err)
		}
		buf := []byte{9}
		if err := c.Bcast(p, buf, 0); err != nil {
			t.Error(err)
		}
		got := make([]byte, 1)
		if err := c.Gather(p, buf, got, 0); err != nil || got[0] != 9 {
			t.Errorf("gather n=1: %v %v", err, got)
		}
		if err := c.Allgather(p, buf, got); err != nil || got[0] != 9 {
			t.Errorf("allgather n=1: %v %v", err, got)
		}
		if err := c.Scatter(p, buf, got, 0); err != nil || got[0] != 9 {
			t.Errorf("scatter n=1: %v %v", err, got)
		}
		if err := c.Alltoall(p, buf, got); err != nil || got[0] != 9 {
			t.Errorf("alltoall n=1: %v %v", err, got)
		}
		out := make([]float64, 2)
		if err := c.Reduce(p, []float64{4, 5}, out, OpSum, 0); err != nil || out[0] != 4 {
			t.Errorf("reduce n=1: %v %v", err, out)
		}
		if err := c.Allreduce(p, []float64{6, 7}, out, OpProd); err != nil || out[1] != 7 {
			t.Errorf("allreduce n=1: %v %v", err, out)
		}
		// Mismatched buffers are rejected even with a single rank.
		if err := c.Gather(p, buf, make([]byte, 2), 0); !errors.Is(err, ErrCollBuffer) {
			t.Errorf("gather n=1 mismatch: %v, want ErrCollBuffer", err)
		}
	})
}

// TestCollAlgoRegistry: duplicates and unknown names are errors; a
// custom registered algorithm is actually selected when forced.
func TestCollAlgoRegistry(t *testing.T) {
	if err := RegisterCollAlgo(CollBcast, "binomial", bcastBinomial); err == nil {
		t.Error("duplicate registration must fail")
	}
	if err := RegisterCollAlgo("nonsense", "x", bcastBinomial); err == nil {
		t.Error("unknown collective kind must fail")
	}
	if err := RegisterCollAlgo(CollBcast, "", nil); err == nil {
		t.Error("empty registration must fail")
	}

	ran := 0
	if err := RegisterCollAlgo(CollBcast, "test-counting", func(pl *CollPlan, a CollArgs) error {
		ran++
		return bcastBinomial(pl, a)
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range CollAlgoNames(CollBcast) {
		if name == "test-counting" {
			found = true
		}
	}
	if !found {
		t.Fatalf("CollAlgoNames(bcast) = %v missing test-counting", CollAlgoNames(CollBcast))
	}
	jobCfg(t, 3,
		func(m *MPI) {
			if err := m.ForceCollAlgo(CollBcast, "test-counting"); err != nil {
				t.Fatal(err)
			}
			if err := m.ForceCollAlgo(CollBcast, "no-such-algo"); !errors.Is(err, ErrCollAlgo) {
				t.Errorf("forcing unknown algorithm: %v, want ErrCollAlgo", err)
			}
		},
		func(p *sim.Proc, m *MPI) {
			buf := []byte{1, 2, 3}
			if err := m.CommWorld().Bcast(p, buf, 0); err != nil {
				t.Error(err)
			}
		})
	if ran != 3 {
		t.Errorf("forced custom algorithm built %d schedules, want 3", ran)
	}
}

// TestSelectionRespectsPairBudget: the round-count-driven algorithms
// (ring, pairwise) send O(n) messages per neighbor pair, so on huge
// communicators the auto-selector must fall back to tree shapes rather
// than pick an algorithm whose schedule cannot be built.
func TestSelectionRespectsPairBudget(t *testing.T) {
	if got := defaultCollAlgo(CollAllreduce, 8, 1<<20); got != "ring" {
		t.Errorf("allreduce n=8 large = %q, want ring", got)
	}
	if got := defaultCollAlgo(CollAllreduce, 600, 1<<20); got != "tree" {
		t.Errorf("allreduce n=600 large = %q, want tree fallback", got)
	}
	if got := defaultCollAlgo(CollAllgather, 2000, 1<<20); got != "gather-bcast" {
		t.Errorf("allgather n=2000 large = %q, want gather-bcast fallback", got)
	}
	if got := defaultCollAlgo(CollAlltoall, 2000, 8<<10); got != "linear" {
		t.Errorf("alltoall n=2000 = %q, want linear fallback", got)
	}
	// A ring schedule past the budget fails at build time with a clear
	// error rather than silently wrapping sub-tags.
	pl := newCollPlan()
	if err := allreduceRing(pl, CollArgs{Rank: 0, Size: 600, Buf: make([]byte, 600*8), SegBytes: 8 << 10}); err != nil {
		t.Fatal(err)
	}
	if pl.err == nil {
		t.Error("over-budget ring schedule must record a build error")
	}
}

// TestCollectivePipelining: the schedule engine must actually overlap
// rounds — a segmented pipeline broadcast of a long vector down a chain
// of 6 ranks has to beat the serialized store-and-forward time that a
// blocking chain would take, proving segments of different rounds are in
// flight at once.
func TestCollectivePipelining(t *testing.T) {
	const n, size = 6, 1 << 20
	payload := make([]byte, size)
	sim.NewRNG(7).Bytes(payload)
	var finish sim.Time
	jobCfg(t, n,
		func(m *MPI) {
			if err := m.ForceCollAlgo(CollBcast, "pipeline"); err != nil {
				t.Fatal(err)
			}
			m.SetCollSegment(16 << 10)
		},
		func(p *sim.Proc, m *MPI) {
			buf := make([]byte, size)
			if m.Rank() == 0 {
				copy(buf, payload)
			}
			if err := m.CommWorld().Bcast(p, buf, 0); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, payload) {
				t.Errorf("rank %d corrupted", m.Rank())
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	// A non-pipelined chain relays the full vector n-1 times in series:
	// at least (n-1) * size / wire-bandwidth. The pipelined chain
	// overlaps the hops, so it must come in well under that — at MX-10G
	// nominal 1250 MB/s, one full relay is ~839 µs.
	wireBytesPerSec := 1250e6
	oneHop := sim.Time(float64(size) / wireBytesPerSec * float64(sim.Second))
	serialized := sim.Time(n-1) * oneHop
	if finish >= serialized {
		t.Errorf("pipelined bcast finished at %v, not faster than the serialized chain bound %v", finish, serialized)
	}
}

// A step that fails ends the collective on its rank with the step's
// direction, peer and engine error, while the other ranks' collectives
// succeed, and every rank goes on to the next collective. When the
// failing rank returns with steps still in flight, their completions
// come later, while that rank runs its next collective; they must land
// in the failed run's own storage and leave the next run alone.
func TestCollectiveStepErrorSurfaces(t *testing.T) {
	t.Run("bcast into a short buffer", func(t *testing.T) {
		const want = "madmpi: bcast: madmpi: collective recv from rank 0: core: message longer than the receive buffer"
		job(t, 2, func(p *sim.Proc, m *MPI) {
			buf := make([]byte, 64)
			if m.Rank() == 1 {
				buf = buf[:32]
			}
			err := m.CommWorld().Bcast(p, buf, 0)
			if m.Rank() == 0 && err != nil {
				t.Errorf("rank 0: Bcast = %v, want nil", err)
			}
			if m.Rank() == 1 && (!errors.Is(err, core.ErrTruncated) || err.Error() != want) {
				t.Errorf("rank 1: Bcast = %v, want %q", err, want)
			}
			if err := m.CommWorld().Dup().Barrier(p); err != nil {
				t.Errorf("rank %d: Barrier = %v", m.Rank(), err)
			}
		})
	})
	t.Run("steps in flight when it returns", func(t *testing.T) {
		// Rank 1 takes 16 B slices where ranks 0 and 2 send 32 B: its
		// receive from rank 0 fails at once, while its receive from rank
		// 2, which enters a millisecond late, is still posted.
		const late = sim.Millisecond
		const want = "madmpi: alltoall: madmpi: collective recv from rank 0: core: message longer than the receive buffer"
		jobCfg(t, 3,
			func(m *MPI) {
				if err := m.ForceCollAlgo(CollAlltoall, "linear"); err != nil {
					t.Fatal(err)
				}
			},
			func(p *sim.Proc, m *MPI) {
				me := m.Rank()
				per := 32
				if me == 1 {
					per = 16
				}
				if me == 2 {
					p.Sleep(late)
				}
				err := m.CommWorld().Alltoall(p, make([]byte, 3*per), make([]byte, 3*per))
				switch {
				case me != 1 && err != nil:
					t.Errorf("rank %d: Alltoall = %v, want nil", me, err)
				case me == 1 && (!errors.Is(err, core.ErrTruncated) || err.Error() != want):
					t.Errorf("rank 1: Alltoall = %v, want %q", err, want)
				case me == 1 && p.Now() >= late:
					t.Fatalf("rank 1 returned at %v, after rank 2 sent: no step was left in flight", p.Now())
				}
				send := bytes.Repeat([]byte{byte('a' + me)}, 48)
				got := make([]byte, 3*len(send))
				if err := m.CommWorld().Dup().Allgather(p, send, got); err != nil {
					t.Errorf("rank %d: Allgather = %v", me, err)
				}
				for r := range 3 {
					if w := bytes.Repeat([]byte{byte('a' + r)}, 48); !bytes.Equal(got[r*48:(r+1)*48], w) {
						t.Errorf("rank %d: Allgather block %d = %q, want %q", me, r, got[r*48:(r+1)*48], w)
					}
				}
			})
	})
}
