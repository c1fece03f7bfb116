package bench

import (
	"errors"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

var errStub = errors.New("stub: request failed")

// stubPeer is a mpiPeer whose operations never touch a fabric: every
// request either fails at once (fail) or never completes.
type stubPeer struct {
	fail  bool
	never *sim.Cond
}

func (s stubPeer) Wait(p *sim.Proc) error {
	if s.fail {
		return errStub
	}
	s.never.Wait(p)
	return nil
}

func (s stubPeer) Isend(*sim.Proc, []byte, int, int, int) pending { return s }
func (s stubPeer) Irecv(*sim.Proc, []byte, int, int, int) pending { return s }

func (s stubPeer) SendTyped(p *sim.Proc, _ []byte, _ []seg, _, _, _ int) error { return s.Wait(p) }
func (s stubPeer) RecvTyped(p *sim.Proc, _ []byte, _ []seg, _, _, _ int) error { return s.Wait(p) }

// stubImpl pairs a rank whose requests fail with a rank whose requests
// hang, so a run ends in one process error plus the deadlock that error
// strands the other rank in.
func stubImpl(failing int) mpiImpl {
	return mpiImpl{Name: "stub", Make: func(f *simnet.Fabric) (mpiPeer, mpiPeer, error) {
		peers := [2]mpiPeer{}
		for rank := range peers {
			peers[rank] = stubPeer{fail: rank == failing, never: sim.NewCond(f.World())}
		}
		return peers[0], peers[1], nil
	}}
}

// Every workload runner reports a failed request as the error it got —
// not as a panic, and not as the deadlock the failure leaves behind.
func TestRunnersReturnRequestErrors(t *testing.T) {
	mx := []simnet.Profile{simnet.MX10G()}
	runners := []struct {
		name string
		run  func(mpiImpl) (float64, error)
	}{
		{"PingPong", func(im mpiImpl) (float64, error) { return rawPingPong(im, mx, 64) }},
		{"MultiSegPingPong", func(im mpiImpl) (float64, error) { return multiSegPingPong(im, mx, 64, 4) }},
		{"DatatypePingPong", func(im mpiImpl) (float64, error) { return datatypePingPong(im, mx, 1<<20) }},
		{"CompositeControlLatency", func(im mpiImpl) (float64, error) { return compositeControlLatency(im, mx, 1024, 4, false) }},
	}
	for _, r := range runners {
		for failing := 0; failing < 2; failing++ {
			if _, err := r.run(stubImpl(failing)); !errors.Is(err, errStub) {
				t.Errorf("%s with rank %d failing: got %v, want the request's error", r.name, failing, err)
			}
		}
	}
	// The engine-level runners build their own cluster; the one input
	// that fails inside their processes is an unknown collective.
	if _, err := lossyCollective(lossyCollectiveConfig{Nodes: 4, Kind: "nope", Per: 8}); err == nil {
		t.Error("LossyCollective with an unknown kind returned no error")
	}
}
