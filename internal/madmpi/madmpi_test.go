package madmpi

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// job spawns size ranks over an MX fabric and runs body on each.
func job(t *testing.T, size int, body func(p *sim.Proc, m *MPI)) {
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
		w.Spawn("rank", func(p *sim.Proc) { body(p, m) })
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInitRankSize(t *testing.T) {
	job(t, 3, func(p *sim.Proc, m *MPI) {
		if m.Size() != 3 {
			t.Errorf("Size = %d, want 3", m.Size())
		}
		if r := m.Rank(); r < 0 || r >= 3 {
			t.Errorf("Rank = %d out of range", r)
		}
		if m.CommWorld().Size() != 3 || m.CommWorld().Rank() != m.Rank() {
			t.Error("world communicator disagrees with the environment")
		}
	})
}

func TestSendRecvBlocking(t *testing.T) {
	msg := []byte("hello rank one")
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		switch m.Rank() {
		case 0:
			if err := c.Send(p, msg, 1, 5); err != nil {
				t.Error(err)
			}
		case 1:
			buf := make([]byte, 64)
			st, err := c.Recv(p, buf, 0, 5)
			if err != nil {
				t.Error(err)
			}
			if st.Source != 0 || st.Tag != 5 || st.Count != len(msg) {
				t.Errorf("status %+v, want {0 5 %d}", st, len(msg))
			}
			if !bytes.Equal(buf[:st.Count], msg) {
				t.Errorf("payload %q", buf[:st.Count])
			}
		}
	})
}

func TestIsendIrecvWaitTest(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			req := c.Isend(p, []byte("async"), 1, 1)
			if err := req.Wait(p); err != nil {
				t.Error(err)
			}
			if !req.Test() {
				t.Error("Test false after Wait")
			}
		} else {
			buf := make([]byte, 8)
			req := c.Irecv(p, buf, 0, 1)
			for !req.Test() {
				p.Sleep(sim.Microsecond)
			}
			st, err := req.WaitStatus(p)
			if err != nil {
				t.Error(err)
			}
			if st.Count != 5 || string(buf[:5]) != "async" {
				t.Errorf("got %q (%d)", buf[:st.Count], st.Count)
			}
		}
	})
}

func TestAnyTag(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			if err := c.Send(p, []byte("tagged"), 1, 42); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 16)
			st, err := c.Recv(p, buf, 0, AnyTag)
			if err != nil {
				t.Error(err)
			}
			if st.Tag != 42 {
				t.Errorf("AnyTag matched tag %d, want 42", st.Tag)
			}
		}
	})
}

func TestCommunicatorsIsolateTags(t *testing.T) {
	// Same user tag on two communicators: each receive must match its own
	// communicator's message.
	job(t, 2, func(p *sim.Proc, m *MPI) {
		world := m.CommWorld()
		other := world.Dup()
		if m.Rank() == 0 {
			if err := other.Send(p, []byte("on-dup"), 1, 7); err != nil {
				t.Error(err)
			}
			if err := world.Send(p, []byte("on-world"), 1, 7); err != nil {
				t.Error(err)
			}
		} else {
			bufW := make([]byte, 16)
			stW, err := world.Recv(p, bufW, 0, 7)
			if err != nil {
				t.Error(err)
			}
			if string(bufW[:stW.Count]) != "on-world" {
				t.Errorf("world comm received %q", bufW[:stW.Count])
			}
			bufD := make([]byte, 16)
			stD, err := other.Recv(p, bufD, 0, 7)
			if err != nil {
				t.Error(err)
			}
			if string(bufD[:stD.Count]) != "on-dup" {
				t.Errorf("dup comm received %q", bufD[:stD.Count])
			}
		}
	})
}

func TestSendrecvNoDeadlock(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		peer := 1 - m.Rank()
		out := []byte{byte(m.Rank())}
		in := make([]byte, 1)
		if _, err := c.Sendrecv(p, out, peer, 3, in, peer, 3); err != nil {
			t.Error(err)
		}
		if in[0] != byte(peer) {
			t.Errorf("rank %d received %d, want %d", m.Rank(), in[0], peer)
		}
	})
}

// TestSendrecvBadPeerPostsNothing: a Sendrecv that fails validation posts
// neither direction. A receive left posted by a call that has returned
// swallows the peer's next message into a buffer the caller has moved on
// from; a send delivers a message nothing receives.
func TestSendrecvBadPeerPostsNothing(t *testing.T) {
	t.Run("bad dest", func(t *testing.T) {
		job(t, 2, func(p *sim.Proc, m *MPI) {
			c := m.CommWorld()
			if m.Rank() == 1 {
				for _, msg := range []string{"ping", "pong"} {
					if err := c.Send(p, []byte(msg), 0, 7); err != nil {
						t.Error(err)
					}
				}
				return
			}
			halo := make([]byte, 4)
			if _, err := c.Sendrecv(p, []byte("lost"), 99, 7, halo, 1, 7); !errors.Is(err, ErrBadRank) {
				t.Errorf("Sendrecv to rank 99: %v, want ErrBadRank", err)
			}
			for _, want := range []string{"ping", "pong"} {
				buf := make([]byte, 4)
				if _, err := c.Recv(p, buf, 1, 7); err != nil || string(buf) != want {
					t.Errorf("Recv = %q (%v), want %q", buf, err, want)
				}
			}
			if !bytes.Equal(halo, make([]byte, 4)) {
				t.Errorf("the failed Sendrecv's receive buffer holds %q", halo)
			}
		})
	})
	t.Run("bad src", func(t *testing.T) {
		job(t, 2, func(p *sim.Proc, m *MPI) {
			c := m.CommWorld()
			if m.Rank() == 1 {
				buf := make([]byte, 4)
				if _, err := c.Recv(p, buf, 0, 7); err != nil || string(buf) != "real" {
					t.Errorf("Recv = %q (%v), want \"real\"", buf, err)
				}
				return
			}
			if _, err := c.Sendrecv(p, []byte("lost"), 1, 7, make([]byte, 4), 99, 7); !errors.Is(err, ErrBadRank) {
				t.Errorf("Sendrecv from rank 99: %v, want ErrBadRank", err)
			}
			if err := c.Send(p, []byte("real"), 1, 7); err != nil {
				t.Error(err)
			}
		})
	})
}

func TestValidationErrors(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if err := c.Isend(p, nil, m.Rank(), 0).Wait(p); !errors.Is(err, ErrSelfMessage) {
			t.Errorf("self send: %v, want ErrSelfMessage", err)
		}
		if err := c.Isend(p, nil, 99, 0).Wait(p); !errors.Is(err, ErrBadRank) {
			t.Errorf("bad rank: %v, want ErrBadRank", err)
		}
		if err := c.Isend(p, nil, 1-m.Rank(), -3).Wait(p); err == nil {
			t.Error("negative tag must fail")
		}
		// Keep the job balanced so neither rank deadlocks.
		if err := c.Barrier(p); err != nil {
			t.Error(err)
		}
	})
}

func TestLargeMessageRendezvous(t *testing.T) {
	big := make([]byte, 2<<20)
	sim.NewRNG(1).Bytes(big)
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			if err := c.Send(p, big, 1, 0); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, len(big))
			st, err := c.Recv(p, buf, 0, 0)
			if err != nil {
				t.Error(err)
			}
			if st.Count != len(big) || !bytes.Equal(buf, big) {
				t.Error("2MB rendezvous corrupted")
			}
		}
	})
}

func TestDatatypeSizeExtent(t *testing.T) {
	if Byte.Size() != 1 || (basic{4}).Size() != 4 {
		t.Error("basic type sizes wrong")
	}
	c := Contiguous(10, Byte)
	if c.Size() != 10 || c.Extent() != 10 {
		t.Errorf("Contiguous(10, Byte): size %d extent %d", c.Size(), c.Extent())
	}
	v := Vector(3, 2, 5, Byte) // 3 blocks of 2 bytes every 5 bytes
	if v.Size() != 6 {
		t.Errorf("Vector size %d, want 6", v.Size())
	}
	if v.Extent() != 15 {
		t.Errorf("Vector extent %d, want 15", v.Extent())
	}
	idx := Indexed([]int{2, 3}, []int{0, 4}, Byte)
	if idx.Size() != 5 || idx.Extent() != 7 {
		t.Errorf("Indexed size %d extent %d, want 5/7", idx.Size(), idx.Extent())
	}
	// The Figure 4 datatype, byte displacements.
	if h := Hindexed([]int{64, 256 << 10}, []int{0, 64}, Byte); h.Size() != 64+256<<10 {
		t.Errorf("Hindexed size %d, want %d", h.Size(), 64+256<<10)
	}
}

func TestFlattenCoalesces(t *testing.T) {
	segs := flatten(Contiguous(100, Byte), 3)
	if len(segs) != 1 || segs[0] != (segment{Offset: 0, Len: 300}) {
		t.Errorf("contiguous flatten = %v, want one 300-byte segment", segs)
	}
	v := Vector(4, 8, 16, Byte)
	segs = flatten(v, 1)
	if len(segs) != 4 {
		t.Fatalf("vector flatten = %v, want 4 blocks", segs)
	}
	for i, s := range segs {
		if s.Offset != i*16 || s.Len != 8 {
			t.Errorf("block %d = %+v, want {%d 8}", i, s, i*16)
		}
	}
}

func TestFlattenPaperDatatype(t *testing.T) {
	// The Figure 4 datatype: one small block (64 B) then one large block
	// (256 KB).
	small, large := 64, 256<<10
	dt := Hindexed([]int{small, large}, []int{0, small}, Byte)
	segs := flatten(dt, 2)
	// Adjacent blocks coalesce within an element; the test layout keeps
	// them adjacent so expect 1 segment per element... unless extent
	// separates them.
	total := 0
	for _, s := range segs {
		total += s.Len
	}
	if total != 2*(small+large) {
		t.Errorf("flattened %d bytes, want %d", total, 2*(small+large))
	}
}

func TestStructDatatype(t *testing.T) {
	// struct { int32 a; pad 4; float64 b[2] } — 2 fields at displacements
	// 0 and 8.
	st := Struct([]int{1, 2}, []int{0, 8}, []Datatype{basic{4}, basic{8}})
	if st.Size() != 4+16 {
		t.Errorf("struct size %d, want 20", st.Size())
	}
	if st.Extent() != 24 {
		t.Errorf("struct extent %d, want 24", st.Extent())
	}
	segs := flatten(st, 1)
	if len(segs) != 2 {
		t.Fatalf("struct flatten %v, want 2 segments", segs)
	}
	if segs[0] != (segment{0, 4}) || segs[1] != (segment{8, 16}) {
		t.Errorf("struct segments %v", segs)
	}
}

func TestTypedSendRecv(t *testing.T) {
	// A strided matrix column exchange: rank 0 sends a column, rank 1
	// receives it into a different stride.
	const rows, cols = 16, 8
	col := Vector(rows, 1, cols, Byte) // one column of a row-major matrix
	src := make([]byte, rows*cols)
	for i := range src {
		src[i] = byte(i)
	}
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			if err := c.SendTyped(p, src[3:], col, 1, 1, 0); err != nil { // column 3
				t.Error(err)
			}
		} else {
			dst := make([]byte, rows*cols)
			if _, err := c.RecvTyped(p, dst[5:], col, 1, 0, 0); err != nil { // into column 5
				t.Error(err)
			}
			for r := 0; r < rows; r++ {
				want := byte(r*cols + 3)
				if dst[r*cols+5] != want {
					t.Fatalf("row %d: got %d, want %d", r, dst[r*cols+5], want)
				}
			}
		}
	})
}

func TestTypedPaperIndexedExchange(t *testing.T) {
	// The §5.3 workload end to end: alternating 64B/256KB blocks.
	small, large := 64, 64<<10
	pair := small + large
	const count = 4
	dt := Hindexed([]int{small, large}, []int{0, small}, Byte)
	src := make([]byte, pair*count)
	sim.NewRNG(9).Bytes(src)
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			if err := c.SendTyped(p, src, dt, count, 1, 2); err != nil {
				t.Error(err)
			}
		} else {
			dst := make([]byte, pair*count)
			st, err := c.RecvTyped(p, dst, dt, count, 0, 2)
			if err != nil {
				t.Error(err)
			}
			if st.Count != pair*count {
				t.Errorf("received %d bytes, want %d", st.Count, pair*count)
			}
			if !bytes.Equal(dst, src) {
				t.Error("indexed payload corrupted")
			}
			// The large blocks must have traveled by rendezvous.
			if rdv := m.Engine().Stats().RdvCompleted; rdv != 0 {
				t.Errorf("receiver shows %d rdv completions; they belong to the sender", rdv)
			}
		}
	})
}

func TestTypedBoundsChecked(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		dt := Hindexed([]int{16}, []int{100}, Byte)
		short := make([]byte, 50)
		if err := c.IsendTyped(p, short, dt, 1, 1-m.Rank(), 0).Wait(p); err == nil {
			t.Error("out-of-bounds datatype send must fail")
		}
		if err := c.Barrier(p); err != nil {
			t.Error(err)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var maxBefore, minAfter sim.Time = 0, 1 << 62
	job(t, 4, func(p *sim.Proc, m *MPI) {
		// Stagger arrival.
		p.Sleep(sim.Time(m.Rank()) * 50 * sim.Microsecond)
		if now := p.Now(); now > maxBefore {
			maxBefore = now
		}
		if err := m.CommWorld().Barrier(p); err != nil {
			t.Error(err)
		}
		if now := p.Now(); now < minAfter {
			minAfter = now
		}
	})
	if minAfter < maxBefore {
		t.Errorf("a rank left the barrier at %v before the last rank entered at %v", minAfter, maxBefore)
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	payload := []byte("broadcast payload")
	for _, root := range []int{0, 2} {
		root := root
		job(t, 5, func(p *sim.Proc, m *MPI) {
			buf := make([]byte, len(payload))
			if m.Rank() == root {
				copy(buf, payload)
			}
			if err := m.CommWorld().Bcast(p, buf, root); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(buf, payload) {
				t.Errorf("rank %d (root %d) got %q", m.Rank(), root, buf)
			}
		})
	}
}

func TestGatherCollectsInRankOrder(t *testing.T) {
	job(t, 4, func(p *sim.Proc, m *MPI) {
		me := []byte{byte('A' + m.Rank()), byte('0' + m.Rank())}
		all := make([]byte, 8)
		if err := m.CommWorld().Gather(p, me, all, 1); err != nil {
			t.Error(err)
		}
		if m.Rank() == 1 && string(all) != "A0B1C2D3" {
			t.Errorf("gathered %q, want A0B1C2D3", all)
		}
	})
}

func TestAllgather(t *testing.T) {
	job(t, 3, func(p *sim.Proc, m *MPI) {
		me := []byte{byte(10 + m.Rank())}
		all := make([]byte, 3)
		if err := m.CommWorld().Allgather(p, me, all); err != nil {
			t.Error(err)
		}
		for r := 0; r < 3; r++ {
			if all[r] != byte(10+r) {
				t.Errorf("rank %d slot %d = %d", m.Rank(), r, all[r])
			}
		}
	})
}

func TestTruncatedRecvKeepsStatus(t *testing.T) {
	// MPI_ERR_TRUNCATE semantics: the receive completes with an error,
	// but the status still carries the matched source, tag and the
	// delivered (truncated) count.
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			if err := c.Send(p, []byte("0123456789"), 1, 8); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 4)
			st, err := c.Recv(p, buf, 0, 8)
			if !errors.Is(err, core.ErrTruncated) {
				t.Errorf("err = %v, want ErrTruncated", err)
			}
			if st.Source != 0 || st.Tag != 8 || st.Count != 4 {
				t.Errorf("status %+v, want {Source:0 Tag:8 Count:4} despite the truncation", st)
			}
			if string(buf) != "0123" {
				t.Errorf("payload %q", buf)
			}
		}
	})
}

func TestWaitallMixed(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		peer := 1 - m.Rank()
		var reqs []*Request
		bufs := make([][]byte, 5)
		for i := 0; i < 5; i++ {
			reqs = append(reqs, c.Isend(p, []byte{byte(i)}, peer, i))
			bufs[i] = make([]byte, 1)
			reqs = append(reqs, c.Irecv(p, bufs[i], peer, i))
		}
		if err := Waitall(p, reqs...); err != nil {
			t.Error(err)
		}
		for i, b := range bufs {
			if b[0] != byte(i) {
				t.Errorf("message %d corrupted: %d", i, b[0])
			}
		}
	})
}

func TestFinalize(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		if err := m.Finalize(); err != nil {
			t.Error(err)
		}
	})
}

// roundTripAllocs is what one ping-pong round trip between two ranks
// leaves on the heap when each message goes out through send and comes
// in through recv. The figure is the marginal one (a long run minus a
// short run, per extra round trip), so world and engine construction
// cancel out, and it is exact: the runs are deterministic.
func roundTripAllocs(t *testing.T, send, recv func(p *sim.Proc, c *Comm, buf []byte, peer int) error) float64 {
	t.Helper()
	pingpong := func(rounds int) {
		ping, pong := make([]byte, 64), make([]byte, 64)
		job(t, 2, func(p *sim.Proc, m *MPI) {
			c, peer := m.CommWorld(), 1-m.Rank()
			for i := 0; i < rounds; i++ {
				var err error
				if m.Rank() == 0 {
					if err = send(p, c, ping, peer); err == nil {
						err = recv(p, c, pong, peer)
					}
				} else {
					if err = recv(p, c, ping, peer); err == nil {
						err = send(p, c, pong, peer)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	const short, long = 32, 288
	pingpong(4) // warm lazy runtime and package init paths out of the measurement
	a1 := testing.AllocsPerRun(5, func() { pingpong(short) })
	a2 := testing.AllocsPerRun(5, func() { pingpong(long) })
	return (a2 - a1) / (long - short)
}

// TestAllocsBlockingPingPong pins what a blocking round trip leaves on
// the heap: nothing. A caller of Send or Recv never sees the request, so
// it is the engine's, taken from a free list and filed back before the
// call returns — as MPI frees a blocking call's request inside the call —
// and nothing per election, NIC transaction or completion is allocated
// below it.
func TestAllocsBlockingPingPong(t *testing.T) {
	got := roundTripAllocs(t,
		func(p *sim.Proc, c *Comm, buf []byte, peer int) error { return c.Send(p, buf, peer, 0) },
		func(p *sim.Proc, c *Comm, buf []byte, peer int) error {
			_, err := c.Recv(p, buf, peer, 0)
			return err
		})
	t.Logf("blocking ping-pong: %.2f objects per round trip", got)
	if got > 0.5 {
		t.Errorf("a blocking round trip allocates %.2f objects, want 0 (ceiling 0.5): a blocking call's request comes from the heap again", got)
	}
}

// TestAllocsNonblockingPingPong is the same round trip through Isend /
// Irecv and Wait: the handle a nonblocking operation returns and the
// engine request it names are one record, so the caller's four handles
// are the whole cost.
func TestAllocsNonblockingPingPong(t *testing.T) {
	got := roundTripAllocs(t,
		func(p *sim.Proc, c *Comm, buf []byte, peer int) error { return c.Isend(p, buf, peer, 0).Wait(p) },
		func(p *sim.Proc, c *Comm, buf []byte, peer int) error { return c.Irecv(p, buf, peer, 0).Wait(p) })
	t.Logf("nonblocking ping-pong: %.2f objects per round trip", got)
	if got > 5 {
		t.Errorf("a nonblocking round trip allocates %.2f objects, want the 4 handles, each one record with its engine request (ceiling 5)", got)
	}
}

// The record of a nonblocking operation fills a malloc size class to the
// byte: a send is the 16-byte handle and the 64-byte engine request (80),
// a receive the handle and the 128-byte request (144). One more word on
// the handle rounds every operation up a class.
func TestOpRecordSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(sendOp{}); got > 80 {
		t.Errorf("sendOp is %d bytes, over the 80-byte size class", got)
	}
	if got := unsafe.Sizeof(recvOp{}); got > 144 {
		t.Errorf("recvOp is %d bytes, over the 144-byte size class", got)
	}
}
