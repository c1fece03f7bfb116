package nmad_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"nmad"
)

func TestClusterQuickstart(t *testing.T) {
	cl, err := nmad.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := cl.Engine(0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := cl.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("facade works")
	got := make([]byte, 32)
	var n int
	cl.Spawn("send", func(p *nmad.Proc) {
		if err := e0.Gate(1).Send(p, 1, msg); err != nil {
			t.Error(err)
		}
	})
	cl.Spawn("recv", func(p *nmad.Proc) {
		var err error
		n, err = e1.Gate(0).Recv(p, 1, got)
		if err != nil {
			t.Error(err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:n], msg) {
		t.Errorf("received %q", got[:n])
	}
	if cl.Now() == 0 {
		t.Error("virtual time did not advance")
	}
}

func TestClusterMPI(t *testing.T) {
	cl, err := nmad.NewCluster(2, nmad.WithRails(nmad.MX10G(), nmad.QsNetII()))
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		m, err := cl.MPI(rank)
		if err != nil {
			t.Fatal(err)
		}
		cl.Spawn("rank", func(p *nmad.Proc) {
			c := m.CommWorld()
			if m.Rank() == 0 {
				if err := c.Send(p, []byte("over the facade"), 1, 0); err != nil {
					t.Error(err)
				}
			} else {
				buf := make([]byte, 32)
				st, err := c.Recv(p, buf, 0, nmad.AnyTag)
				if err != nil {
					t.Error(err)
				}
				if string(buf[:st.Count]) != "over the facade" {
					t.Errorf("got %q", buf[:st.Count])
				}
			}
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedDatatypeAggregatesIntoOnePacket is the §5.3 acceptance
// check through the facade: the blocks of an Indexed datatype ride the
// vector path (Isendv) as ONE wrapper and depart in ONE physical packet,
// observed through the tracer.
func TestIndexedDatatypeAggregatesIntoOnePacket(t *testing.T) {
	cl, err := nmad.NewCluster(2, nmad.WithRails(nmad.MX10G()))
	if err != nil {
		t.Fatal(err)
	}
	tr := nmad.NewTracer()
	m0, err := cl.MPI(0, nmad.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := cl.MPI(1)
	if err != nil {
		t.Fatal(err)
	}
	// Eight scattered 64B blocks, eager-sized: without the vector path
	// this was eight wrappers (and at best one aggregated packet after a
	// busy NIC); now it is a single wrapper, always a single packet.
	blocks, gap := 8, 32
	lens := make([]int, blocks)
	displs := make([]int, blocks)
	for i := range lens {
		lens[i] = 64
		displs[i] = i * (64 + gap)
	}
	dt := nmad.Indexed(lens, displs, nmad.ByteType)
	src := make([]byte, blocks*(64+gap))
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, len(src))
	cl.Spawn("rank0", func(p *nmad.Proc) {
		if err := m0.CommWorld().SendTyped(p, src, dt, 1, 1, 0); err != nil {
			t.Error(err)
		}
	})
	cl.Spawn("rank1", func(p *nmad.Proc) {
		st, err := m1.CommWorld().RecvTyped(p, dst, dt, 1, 0, 0)
		if err != nil {
			t.Error(err)
		}
		if st.Count != blocks*64 {
			t.Errorf("received %d bytes, want %d", st.Count, blocks*64)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		at := i * (64 + gap)
		if !bytes.Equal(dst[at:at+64], src[at:at+64]) {
			t.Fatalf("block %d corrupted", i)
		}
	}
	if n := tr.Count(nmad.TraceSubmit); n != 1 {
		t.Errorf("Submit events = %d, want 1 (the whole datatype is one wrapper)", n)
	}
	if n := tr.Count(nmad.TraceDepart); n != 1 {
		t.Errorf("Depart events = %d, want 1 (all iovec segments in one physical packet)", n)
	}
	for _, ev := range tr.Filter(nmad.TraceDepart) {
		if ev.Bytes != blocks*64 {
			t.Errorf("departing packet carried %d payload bytes, want %d", ev.Bytes, blocks*64)
		}
	}
	if st := m0.Engine().Stats(); st.OutputPackets != 1 {
		t.Errorf("OutputPackets = %d, want 1", st.OutputPackets)
	}
}

// TestFacadeVectorSendAggregatesWithOtherFlows drives Isendv directly
// through the facade: a vector message and unrelated small sends share
// one physical packet when the NIC is busy.
func TestFacadeVectorSendAggregatesWithOtherFlows(t *testing.T) {
	cl, err := nmad.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := nmad.NewTracer()
	e0, err := cl.Engine(0, nmad.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := cl.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn("send", func(p *nmad.Proc) {
		g := e0.Gate(1)
		g.Isend(p, 1, make([]byte, 64)) // departs alone, occupies the NIC
		g.Isendv(p, 2, [][]byte{make([]byte, 32), make([]byte, 32)})
		g.Isend(p, 3, make([]byte, 64))
	})
	cl.Spawn("recv", func(p *nmad.Proc) {
		g := e1.Gate(0)
		reqs := []nmad.Request{
			g.Irecv(p, 1, make([]byte, 64)),
			g.Irecvv(p, 2, [][]byte{make([]byte, 64)}),
			g.Irecv(p, 3, make([]byte, 64)),
		}
		if err := nmad.WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	multi := false
	for _, ev := range tr.Filter(nmad.TraceElect) {
		if ev.Entries > 1 {
			multi = true
		}
	}
	if !multi {
		t.Error("the vector wrapper never aggregated with the other flow")
	}
}

// TestFacadeWaitAnyAcrossLayers mixes an engine receive and an MPI
// request under the one unified WaitAny.
func TestFacadeUnifiedRequests(t *testing.T) {
	cl, err := nmad.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cl.MPI(0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := cl.MPI(1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn("rank0", func(p *nmad.Proc) {
		var reqs []nmad.Request
		reqs = append(reqs, m0.CommWorld().Isend(p, []byte("a"), 1, 0))
		reqs = append(reqs, m0.CommWorld().Irecv(p, make([]byte, 1), 1, 1))
		idx, err := nmad.WaitAny(p, reqs...)
		if err != nil {
			t.Error(err)
		}
		if err := nmad.WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
		_ = idx
	})
	cl.Spawn("rank1", func(p *nmad.Proc) {
		c := m1.CommWorld()
		if _, err := c.Recv(p, make([]byte, 1), 0, 0); err != nil {
			t.Error(err)
		}
		if err := c.Send(p, []byte("b"), 0, 1); err != nil {
			t.Error(err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCollectiveOptionsAndRegistry(t *testing.T) {
	// The registry is visible through the facade.
	kinds := nmad.CollKinds()
	if len(kinds) != 8 {
		t.Fatalf("CollKinds() = %v, want the eight collectives", kinds)
	}
	names := nmad.CollAlgoNames(nmad.CollAllreduce)
	hasRing := false
	for _, n := range names {
		if n == "ring" {
			hasRing = true
		}
	}
	if !hasRing {
		t.Fatalf("CollAlgoNames(allreduce) = %v, want ring among them", names)
	}
	if err := nmad.RegisterCollAlgo(nmad.CollAllreduce, "ring", nil); err == nil {
		t.Error("duplicate facade registration must fail")
	}

	// WithCollAlgo/WithCollSegment configure ranks; a forced pipelined
	// ring allreduce runs correctly over the facade.
	const n, elems = 4, 1000
	cl, err := nmad.NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		m, err := cl.MPI(rank,
			nmad.WithCollAlgo(nmad.CollAllreduce, "ring"),
			nmad.WithCollSegment(2048))
		if err != nil {
			t.Fatal(err)
		}
		cl.Spawn("rank", func(p *nmad.Proc) {
			in := make([]float64, elems)
			for i := range in {
				in[i] = float64(m.Rank() + 1)
			}
			out := make([]float64, elems)
			if err := m.CommWorld().Allreduce(p, in, out, nmad.OpSum); err != nil {
				t.Error(err)
				return
			}
			for i := range out {
				if out[i] != 1+2+3+4 {
					t.Errorf("rank %d element %d = %g, want 10", m.Rank(), i, out[i])
					return
				}
			}
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}

	// An unknown forced algorithm surfaces from MPI construction.
	if _, err := cl.MPI(0, nmad.WithCollAlgo(nmad.CollBcast, "no-such")); !errors.Is(err, nmad.ErrCollAlgo) {
		t.Errorf("unknown forced algorithm: err = %v, want ErrCollAlgo", err)
	}
}

// TestFacadeLossyCluster drives the fault-injection and reliability
// options end to end through the facade: a cluster built lossy with
// WithFaults, engines running the link layer via WithReliability, and
// every payload checked on arrival.
func TestFacadeLossyCluster(t *testing.T) {
	cl, err := nmad.NewCluster(2, nmad.WithFaults(nmad.UniformLoss(5, 0.20, 1)))
	if err != nil {
		t.Fatal(err)
	}
	e0, err := cl.Engine(0, nmad.WithReliability())
	if err != nil {
		t.Fatal(err)
	}
	e1, err := cl.Engine(1, nmad.WithReliability())
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	mk := func(i int) []byte {
		buf := make([]byte, 512)
		for j := range buf {
			buf[j] = byte(i*37) + byte(j)*11
		}
		return buf
	}
	cl.Spawn("send", func(p *nmad.Proc) {
		for i := 0; i < n; i++ {
			if err := e0.Gate(1).Send(p, nmad.Tag(i+1), mk(i)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	cl.Spawn("recv", func(p *nmad.Proc) {
		buf := make([]byte, 512)
		for i := 0; i < n; i++ {
			got, err := e1.Gate(0).Recv(p, nmad.Tag(i+1), buf)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if got != 512 || !bytes.Equal(buf, mk(i)) {
				t.Errorf("message %d arrived corrupt or truncated (%d bytes)", i, got)
			}
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if e0.Stats().Retransmits == 0 {
		t.Error("20% drop produced no retransmissions — WithFaults did not reach the fabric")
	}
}

// The two error types the docs promise can be matched from outside the
// module: errors.As needs a name for the type, and the facade has one.
func TestFacadeNamesTheErrorTypes(t *testing.T) {
	cl, err := nmad.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := cl.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn("stuck", func(p *nmad.Proc) {
		_, _ = e1.Gate(0).Recv(p, 1, make([]byte, 8)) // nobody sends: Run reports it
	})
	var deadlock *nmad.DeadlockError
	if err := cl.Run(); !errors.As(err, &deadlock) || len(deadlock.Blocked) != 1 || deadlock.Blocked[0] != "stuck" {
		t.Errorf("Run with a receive nobody sends to: %v, want a *nmad.DeadlockError naming the process", err)
	}

	// The golden recording with its first send removed cannot drain.
	golden, err := os.ReadFile("internal/replay/testdata/canonical.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(golden), "\n")
	for i, l := range lines {
		if strings.Contains(l, `"op":"send"`) {
			lines = append(lines[:i], lines[i+1:]...)
			break
		}
	}
	rec, err := nmad.ReadRecording(strings.NewReader(strings.Join(lines, "")))
	if err != nil {
		t.Fatal(err)
	}
	var undrained *nmad.UndrainedError
	if _, err := nmad.Replay(rec, nmad.ReplayConfig{}); !errors.As(err, &undrained) || undrained.Count == 0 {
		t.Errorf("Replay of a recording with a send missing: %v, want a *nmad.UndrainedError counting the stranded ops", err)
	}
}

// Every sentinel a facade caller can be handed is matchable by its facade
// name.
func TestSentinelsMatchThroughFacade(t *testing.T) {
	mpiErr := func(t *testing.T, dest int) error {
		t.Helper()
		cl, err := nmad.NewCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cl.MPI(0)
		if err != nil {
			t.Fatal(err)
		}
		var sendErr error
		cl.Spawn("send", func(p *nmad.Proc) { sendErr = m.CommWorld().Send(p, []byte("x"), dest, 0) })
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		return sendErr
	}
	t.Run("ErrBadRank", func(t *testing.T) {
		if err := mpiErr(t, 5); !errors.Is(err, nmad.ErrBadRank) {
			t.Errorf("send to rank 5 of 2: %v, want ErrBadRank", err)
		}
	})
	t.Run("ErrSelfMessage", func(t *testing.T) {
		if err := mpiErr(t, 0); !errors.Is(err, nmad.ErrSelfMessage) {
			t.Errorf("send to self: %v, want ErrSelfMessage", err)
		}
	})
	t.Run("ErrNoRequests", func(t *testing.T) {
		cl, err := nmad.NewCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		cl.Spawn("wait", func(p *nmad.Proc) {
			if _, err := nmad.WaitAny(p); !errors.Is(err, nmad.ErrNoRequests) {
				t.Errorf("WaitAny with no requests: %v, want ErrNoRequests", err)
			}
		})
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("ErrBadConfig", func(t *testing.T) {
		cl, err := nmad.NewCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		e, err := cl.Engine(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nmad.NewQueue(e); !errors.Is(err, nmad.ErrBadConfig) {
			t.Errorf("queue without a tenant: %v, want ErrBadConfig", err)
		}
	})
}
