package madmpi

import (
	"fmt"
	"testing"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// reliableJob spawns size ranks over an MX fabric with the given fault
// profile (the zero profile is lossless) and reliability-enabled engines,
// and runs body on each rank.
func reliableJob(tb testing.TB, size int, fp simnet.FaultProfile, body func(p *sim.Proc, m *MPI)) {
	tb.Helper()
	w := sim.NewWorld()
	f := simnet.NewFabric(w, size, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		tb.Fatal(err)
	}
	if err := f.SetFaults(fp); err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Reliability = true
	for i := 0; i < size; i++ {
		m, err := Init(f, simnet.NodeID(i), opts)
		if err != nil {
			tb.Fatal(err)
		}
		w.Spawn("rank", func(p *sim.Proc) { body(p, m) })
	}
	if err := w.Run(); err != nil {
		tb.Fatal(err)
	}
}

func onePercentDrop(seed uint64) simnet.FaultProfile {
	return simnet.FaultProfile{Seed: seed, Rails: []simnet.RailFaults{{DropProb: 0.01}}}
}

// TestScaleBarrier1024Lossy runs the dissemination barrier twice across
// 1024 emulated nodes on a rail dropping 1% of packets. Completion is
// the assertion: a lost or duplicated round message would wedge or
// corrupt the happened-before chain and the run would deadlock.
func TestScaleBarrier1024Lossy(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node emulation skipped in -short mode")
	}
	reliableJob(t, 1024, onePercentDrop(7), func(p *sim.Proc, m *MPI) {
		for round := 0; round < 2; round++ {
			if err := m.CommWorld().Barrier(p); err != nil {
				t.Errorf("rank %d barrier round %d: %v", m.Rank(), round, err)
				return
			}
		}
	})
}

// TestScaleAllgather1024Lossy runs an allgather across 1024 emulated
// nodes at 1% drop and verifies every rank assembled every other rank's
// contribution byte-for-byte — zero lost, truncated or duplicated
// payload deliveries.
func TestScaleAllgather1024Lossy(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node emulation skipped in -short mode")
	}
	const size = 1024
	const per = 8
	reliableJob(t, size, onePercentDrop(13), func(p *sim.Proc, m *MPI) {
		rank := m.Rank()
		me := make([]byte, per)
		for i := range me {
			me[i] = byte(rank>>uint(4*i)) ^ byte(i*31)
		}
		all := make([]byte, size*per)
		if err := m.CommWorld().Allgather(p, me, all); err != nil {
			t.Errorf("rank %d allgather: %v", rank, err)
			return
		}
		for r := 0; r < size; r++ {
			for i := 0; i < per; i++ {
				want := byte(r>>uint(4*i)) ^ byte(i*31)
				if all[r*per+i] != want {
					t.Errorf("rank %d: slot %d byte %d = %#x, want %#x",
						rank, r, i, all[r*per+i], want)
					return
				}
			}
		}
	})
}

// BenchmarkAllgatherRing is the host cost of one lossless ring allgather
// of 64 B per rank (reliability on, one MX rail) across 256 and 512 ranks:
// the collective executor's per-layer number. The ring is forced, since
// the automatic selection would run gather-bcast on 256 ranks. At 512
// ranks that is about 261 000 messages, where the engine's per-message
// work dominates: the executor finishes each step once, off the FIFO its
// one completion hook fills, and builds the plan into flat arenas, so it
// makes a few objects per rank, not per step. Each rank runs one
// collective here, so its run state is made once and never reused. CI
// gates the object count of the 512-rank run. Run it with
// go test -run=NONE -bench AllgatherRing -benchtime 1x -benchmem ./internal/madmpi
func BenchmarkAllgatherRing(b *testing.B) {
	const per = 64
	for _, size := range []int{256, 512} {
		b.Run(fmt.Sprintf("ranks=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reliableJob(b, size, simnet.FaultProfile{}, func(p *sim.Proc, m *MPI) {
					if err := m.ForceCollAlgo(CollAllgather, "ring"); err != nil {
						b.Error(err)
						return
					}
					all := make([]byte, size*per)
					if err := m.CommWorld().Allgather(p, make([]byte, per), all); err != nil {
						b.Errorf("rank %d allgather: %v", m.Rank(), err)
					}
				})
			}
		})
	}
}
