package madmpi

import (
	"math"
	"testing"

	"nmad/internal/sim"
)

func TestSsendSynchronizes(t *testing.T) {
	var sendDone, recvAt sim.Time
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			if err := c.Ssend(p, []byte("sync payload"), 1, 3); err != nil {
				t.Error(err)
			}
			sendDone = p.Now()
		} else {
			p.Sleep(250 * sim.Microsecond)
			recvAt = p.Now()
			if _, err := c.Recv(p, make([]byte, 16), 0, 3); err != nil {
				t.Error(err)
			}
		}
	})
	if sendDone <= recvAt {
		t.Errorf("Ssend finished at %v, before the receive was posted at %v", sendDone, recvAt)
	}
}

func TestIssendTestTransitions(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			req := c.Issend(p, []byte("x"), 1, 0)
			p.Sleep(100 * sim.Microsecond)
			if req.Test() {
				t.Error("Issend complete before any receive was posted")
			}
			if err := req.Wait(p); err != nil {
				t.Error(err)
			}
		} else {
			p.Sleep(200 * sim.Microsecond)
			if _, err := c.Recv(p, make([]byte, 4), 0, 0); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestProbeAndIprobe(t *testing.T) {
	const delay = 100 * sim.Microsecond
	job(t, 3, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		switch m.Rank() {
		case 0:
			p.Sleep(delay)
			if err := c.Send(p, []byte("probe-target"), 1, 17); err != nil {
				t.Error(err)
			}
		case 2:
			// Same tag, other source, long before rank 0's message: it
			// waits unexpected on another gate of rank 1 and must not
			// satisfy (or confuse) a probe for rank 0.
			if err := c.Send(p, []byte("bystander"), 1, 17); err != nil {
				t.Error(err)
			}
		case 1:
			ok, _, err := c.Iprobe(p, 0, 17)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Error("Iprobe hit before arrival (virtual time has not advanced)")
			}
			st, err := c.Probe(p, 0, AnyTag)
			if err != nil {
				t.Fatal(err)
			}
			if st.Tag != 17 || st.Count != len("probe-target") || st.Source != 0 {
				t.Errorf("Probe status %+v", st)
			}
			if p.Now() < delay {
				t.Errorf("Probe(0) returned at %v, before rank 0 sent anything", p.Now())
			}
			ok, st2, err := c.Iprobe(p, 0, 17)
			if err != nil || !ok || st2.Count != st.Count {
				t.Errorf("Iprobe after Probe: %v %+v %v", ok, st2, err)
			}
			if ok, st3, err := c.Iprobe(p, 2, 17); err != nil || !ok || st3.Count != len("bystander") {
				t.Errorf("Iprobe of the other source: %v %+v %v", ok, st3, err)
			}
			// Probe must not consume.
			for _, src := range []int{0, 2} {
				if _, err := c.Recv(p, make([]byte, 32), src, 17); err != nil {
					t.Error(err)
				}
			}
		}
	})
}

func TestReduceSum(t *testing.T) {
	const n = 5
	job(t, n, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		vec := []float64{float64(m.Rank()), 1, float64(m.Rank() * m.Rank())}
		out := make([]float64, len(vec))
		if err := c.Reduce(p, vec, out, OpSum, 2); err != nil {
			t.Error(err)
		}
		if m.Rank() == 2 {
			want := []float64{0 + 1 + 2 + 3 + 4, n, 0 + 1 + 4 + 9 + 16}
			for i := range want {
				if out[i] != want[i] {
					t.Errorf("reduce[%d] = %g, want %g", i, out[i], want[i])
				}
			}
		}
	})
}

func TestAllreduceMaxMinProd(t *testing.T) {
	job(t, 4, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		me := float64(m.Rank() + 1)
		out := make([]float64, 1)
		if err := c.Allreduce(p, []float64{me}, out, OpMax); err != nil {
			t.Error(err)
		}
		if out[0] != 4 {
			t.Errorf("allreduce max = %g on rank %d", out[0], m.Rank())
		}
		if err := c.Allreduce(p, []float64{me}, out, OpMin); err != nil {
			t.Error(err)
		}
		if out[0] != 1 {
			t.Errorf("allreduce min = %g", out[0])
		}
		if err := c.Allreduce(p, []float64{me}, out, OpProd); err != nil {
			t.Error(err)
		}
		if out[0] != 24 {
			t.Errorf("allreduce prod = %g, want 4!", out[0])
		}
	})
}

func TestAllreduceNonPowerOfTwo(t *testing.T) {
	job(t, 3, func(p *sim.Proc, m *MPI) {
		out := make([]float64, 2)
		in := []float64{1, float64(m.Rank())}
		if err := m.CommWorld().Allreduce(p, in, out, OpSum); err != nil {
			t.Error(err)
		}
		if out[0] != 3 || out[1] != 3 {
			t.Errorf("rank %d allreduce = %v, want [3 3]", m.Rank(), out)
		}
	})
}

func TestScatter(t *testing.T) {
	job(t, 4, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		var send []byte
		if m.Rank() == 1 {
			send = []byte("AABBCCDD")
		}
		recv := make([]byte, 2)
		if err := c.Scatter(p, send, recv, 1); err != nil {
			t.Error(err)
		}
		want := string([]byte{byte('A' + m.Rank()), byte('A' + m.Rank())})
		if string(recv) != want {
			t.Errorf("rank %d scattered %q, want %q", m.Rank(), recv, want)
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	job(t, n, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		send := make([]byte, n)
		for i := range send {
			send[i] = byte(10*m.Rank() + i) // slice i goes to rank i
		}
		recv := make([]byte, n)
		if err := c.Alltoall(p, send, recv); err != nil {
			t.Error(err)
		}
		for r := 0; r < n; r++ {
			if recv[r] != byte(10*r+m.Rank()) {
				t.Errorf("rank %d slot %d = %d, want %d", m.Rank(), r, recv[r], 10*r+m.Rank())
			}
		}
	})
}

func TestAlltoallValidation(t *testing.T) {
	job(t, 3, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if err := c.Alltoall(p, make([]byte, 4), make([]byte, 4)); err == nil {
			t.Error("non-divisible buffer must fail")
		}
		if err := c.Barrier(p); err != nil {
			t.Error(err)
		}
	})
}

func TestReduceValidatesRoot(t *testing.T) {
	job(t, 2, func(p *sim.Proc, m *MPI) {
		if err := m.CommWorld().Reduce(p, []float64{1}, make([]float64, 1), OpSum, 9); err == nil {
			t.Error("bad root must fail")
		}
	})
}

func TestOpsAreSane(t *testing.T) {
	if OpSum(2, 3) != 5 || OpProd(2, 3) != 6 {
		t.Error("sum/prod wrong")
	}
	if OpMax(2, 3) != 3 || OpMin(2, 3) != 2 {
		t.Error("max/min wrong")
	}
	if !math.IsInf(OpMax(math.Inf(1), 0), 1) {
		t.Error("max must propagate infinities like math.Max")
	}
}
