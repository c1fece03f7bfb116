package baseline

import (
	"bytes"
	"errors"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

func pairRanks(t *testing.T, opts Options, prof simnet.Profile) (*sim.World, *Rank, *Rank) {
	t.Helper()
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	if _, err := f.AddNetwork(prof); err != nil {
		t.Fatal(err)
	}
	r0, err := NewRank(f, 0, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewRank(f, 0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, r0, r1
}

func TestPersonalities(t *testing.T) {
	if MPICH().Name != "mpich" || OpenMPI().Name != "openmpi" {
		t.Error("personality names wrong")
	}
	if MPICH().SubmitOverhead >= OpenMPI().SubmitOverhead {
		t.Error("OpenMPI should have the heavier per-call path")
	}
	if !OpenMPI().PipelinedDatatypes || MPICH().PipelinedDatatypes {
		t.Error("only OpenMPI pipelines datatypes")
	}
}

func TestEagerSendRecv(t *testing.T) {
	w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
	msg := []byte("baseline eager")
	w.Spawn("send", func(p *sim.Proc) {
		if err := r0.Send(p, msg, 1, 3, 0); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 64)
		n, err := r1.recv(p, buf, 0, 3, 0)
		if err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf[:n], msg) {
			t.Errorf("got %q", buf[:n])
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	for _, opts := range []Options{MPICH(), OpenMPI()} {
		opts := opts
		t.Run(opts.Name, func(t *testing.T) {
			w, r0, r1 := pairRanks(t, opts, simnet.MX10G())
			big := make([]byte, 1<<20)
			sim.NewRNG(2).Bytes(big)
			w.Spawn("send", func(p *sim.Proc) {
				if err := r0.Send(p, big, 1, 1, 0); err != nil {
					t.Error(err)
				}
			})
			w.Spawn("recv", func(p *sim.Proc) {
				buf := make([]byte, len(big))
				n, err := r1.recv(p, buf, 0, 1, 0)
				if err != nil {
					t.Error(err)
				}
				if n != len(big) || !bytes.Equal(buf, big) {
					t.Error("rendezvous corrupted")
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnexpectedBuffered(t *testing.T) {
	w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
	w.Spawn("send", func(p *sim.Proc) {
		if err := r0.Send(p, []byte("early"), 1, 9, 0); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		buf := make([]byte, 8)
		n, err := r1.recv(p, buf, 0, 9, 0)
		if err != nil {
			t.Error(err)
		}
		if string(buf[:n]) != "early" {
			t.Errorf("got %q", buf[:n])
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestUnexpectedSurvivesLaterTraffic: a buffered unexpected message is a
// slice of the wire frame it arrived in; equal-sized messages sent one at
// a time afterwards would refill that frame if the rank did not hold it.
func TestUnexpectedSurvivesLaterTraffic(t *testing.T) {
	const n = 8
	w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := r0.Send(p, bytes.Repeat([]byte{byte('a' + i)}, 64), 1, 9, 0); err != nil {
				t.Error(err)
			}
			p.Sleep(20 * sim.Microsecond) // delivered before the next leaves
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		buf := make([]byte, 64)
		for i := 0; i < n; i++ {
			if _, err := r1.recv(p, buf, 0, 9, 0); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{byte('a' + i)}, 64)) {
				t.Fatalf("message %d read back as %q", i, buf[:8])
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCommIsolation(t *testing.T) {
	w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
	w.Spawn("send", func(p *sim.Proc) {
		if err := r0.Send(p, []byte("c1"), 1, 5, 1); err != nil {
			t.Error(err)
		}
		if err := r0.Send(p, []byte("c2"), 1, 5, 2); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 4)
		n, err := r1.recv(p, buf, 0, 5, 2)
		if err != nil {
			t.Error(err)
		}
		if string(buf[:n]) != "c2" {
			t.Errorf("comm 2 got %q", buf[:n])
		}
		n, err = r1.recv(p, buf, 0, 5, 1)
		if err != nil {
			t.Error(err)
		}
		if string(buf[:n]) != "c1" {
			t.Errorf("comm 1 got %q", buf[:n])
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncation(t *testing.T) {
	w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
	w.Spawn("send", func(p *sim.Proc) {
		r0.Isend(p, []byte("0123456789"), 1, 0, 0)
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 3)
		_, err := r1.recv(p, buf, 0, 0, 0)
		if !errors.Is(err, errTruncated) {
			t.Errorf("err = %v, want ErrBaselineTruncated", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadPeer(t *testing.T) {
	_, r0, _ := pairRanks(t, MPICH(), simnet.MX10G())
	if err := r0.Isend(nil, nil, 7, 0, 0).err; !errors.Is(err, errBadPeer) {
		t.Errorf("bad dest: %v", err)
	}
	if err := r0.Irecv(nil, nil, 0, 0, 0).err; !errors.Is(err, errBadPeer) {
		t.Errorf("self recv: %v", err)
	}
}

func TestNoAggregationEver(t *testing.T) {
	// The defining negative behaviour: N sends are N physical packets.
	w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
	const n = 10
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r0.Isend(p, make([]byte, 64), 1, i, 0)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := r1.recv(p, make([]byte, 64), 0, i, 0); err != nil {
				t.Error(err)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r0.drv.Stats().TxPackets; got != n {
		t.Errorf("baseline sent %d packets for %d sends, want exactly %d", got, n, n)
	}
}

func TestTypedRoundTrip(t *testing.T) {
	for _, opts := range []Options{MPICH(), OpenMPI()} {
		opts := opts
		t.Run(opts.Name, func(t *testing.T) {
			w, r0, r1 := pairRanks(t, opts, simnet.MX10G())
			// Paper layout: 64B + 256KB blocks, twice.
			segs := []Segment{{0, 64}, {64, 256 << 10}, {64 + 256<<10, 64}, {128 + 256<<10, 256 << 10}}
			total := 0
			for _, s := range segs {
				total += s.Len
			}
			src := make([]byte, total)
			sim.NewRNG(8).Bytes(src)
			w.Spawn("send", func(p *sim.Proc) {
				if err := r0.SendTyped(p, src, segs, 1, 100, 0); err != nil {
					t.Error(err)
				}
			})
			w.Spawn("recv", func(p *sim.Proc) {
				dst := make([]byte, total)
				if err := r1.RecvTyped(p, dst, segs, 0, 100, 0); err != nil {
					t.Error(err)
				}
				if !bytes.Equal(dst, src) {
					t.Error("typed payload corrupted")
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTypedCopiesCostTime(t *testing.T) {
	// The §5.3 effect: the same bytes sent contiguous must beat the
	// packed datatype path on MPICH.
	elapsed := func(typed bool) sim.Time {
		w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
		size := 1 << 20
		segs := []Segment{{0, size}}
		var done sim.Time
		w.Spawn("send", func(p *sim.Proc) {
			buf := make([]byte, size)
			var err error
			if typed {
				err = r0.SendTyped(p, buf, segs, 1, 0, 0)
			} else {
				err = r0.Send(p, buf, 1, 0, 0)
			}
			if err != nil {
				t.Error(err)
			}
		})
		w.Spawn("recv", func(p *sim.Proc) {
			buf := make([]byte, size)
			var err error
			if typed {
				err = r1.RecvTyped(p, buf, segs, 0, 0, 0)
			} else {
				_, err = r1.recv(p, buf, 0, 0, 0)
			}
			if err != nil {
				t.Error(err)
			}
			done = p.Now()
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	typed, raw := elapsed(true), elapsed(false)
	if typed <= raw {
		t.Errorf("typed path %v vs raw %v: pack/unpack copies must cost time", typed, raw)
	}
	// Two extra copies of 1MB at 1.2 GB/s is ~1.7ms.
	if typed-raw < sim.FromMicroseconds(1000) {
		t.Errorf("typed overhead only %v, want rough double memcpy cost", typed-raw)
	}
}

func TestOpenMPIPipelinedDatatypesFasterThanMPICH(t *testing.T) {
	// The reason the paper's Figure 4 shows OpenMPI ahead of MPICH.
	elapsed := func(opts Options) sim.Time {
		w, r0, r1 := pairRanks(t, opts, simnet.MX10G())
		size := 2 << 20
		segs := []Segment{{0, size}}
		var done sim.Time
		w.Spawn("send", func(p *sim.Proc) {
			if err := r0.SendTyped(p, make([]byte, size), segs, 1, 0, 0); err != nil {
				t.Error(err)
			}
		})
		w.Spawn("recv", func(p *sim.Proc) {
			if err := r1.RecvTyped(p, make([]byte, size), segs, 0, 0, 0); err != nil {
				t.Error(err)
			}
			done = p.Now()
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	ompi, mpich := elapsed(OpenMPI()), elapsed(MPICH())
	if ompi >= mpich {
		t.Errorf("openmpi typed %v vs mpich %v: the pipeline must win", ompi, mpich)
	}
}

// A completion wakes the process waiting on it and nobody else: seven
// processes wait on their own receives of one rank while an eighth
// receives m messages on it. What the seven add to the run's event count
// must not depend on m — with a rank-wide broadcast every delivery wakes
// all seven. An event count, so the same on any machine.
func TestBystandersCostNoEvents(t *testing.T) {
	const bystanders = 7
	events := func(m int, withBystanders bool) uint64 {
		w, r0, r1 := pairRanks(t, MPICH(), simnet.MX10G())
		recv := func(tag, n int) {
			w.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if _, err := r1.recv(p, make([]byte, 8), 0, tag, 0); err != nil {
						t.Error(err)
					}
				}
			})
		}
		recv(0, m)
		if withBystanders {
			for tag := 1; tag <= bystanders; tag++ {
				recv(tag, 1)
			}
		}
		w.Spawn("send", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			for i := 0; i < m; i++ {
				if err := r0.Send(p, []byte("payload"), 1, 0, 0); err != nil {
					t.Error(err)
				}
			}
			if withBystanders {
				// Parked through the whole exchange, released long after it.
				p.Sleep(10 * sim.Millisecond)
				for tag := 1; tag <= bystanders; tag++ {
					if err := r0.Send(p, []byte("release"), 1, tag, 0); err != nil {
						t.Error(err)
					}
				}
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w.Events()
	}
	one := events(1, true) - events(1, false)
	ten := events(10, true) - events(10, false)
	if one != ten {
		t.Errorf("%d parked bystanders cost %d events next to 1 message and %d next to 10", bystanders, one, ten)
	}
}
