package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// A collective's steps go out one-shot (core.IsendvOnceInto): each has a
// fresh tag, and neither gate keeps state for it. These tests hold that
// over a long job and over a fabric that duplicates and reorders.

// liveHeap is the heap still referenced after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// flowState sums core.FlowState over the ranks' engines.
func flowState(ranks []*madmpi.MPI) (entries, held, once int) {
	for _, m := range ranks {
		e, h, o := core.FlowState(m.Engine())
		entries, held, once = entries+e, held+h, once+o
	}
	return entries, held, once
}

// TestBarriersLeaveNoFlowState: 10 000 barriers on 4 ranks over reliable
// MX. Between the 1 000th and the last, no gate gains a flow entry and
// the live heap does not grow with the count. Steps sent as ordered
// flows read about 200 B per barrier here: an entry per message on both
// sides, kept for good.
func TestBarriersLeaveNoFlowState(t *testing.T) {
	const warm, total = 1000, 10000
	w, ranks, err := mxRanks(4, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var heap [2]uint64
	var state [2][3]int
	g := sim.NewGroup(w)
	for _, m := range ranks {
		g.Go(fmt.Sprintf("rank-%d", m.Rank()), func(p *sim.Proc) error {
			for i := 1; i <= total; i++ {
				if err := m.CommWorld().Barrier(p); err != nil {
					return fmt.Errorf("rank %d barrier %d: %w", m.Rank(), i, err)
				}
				if m.Rank() == 0 && (i == warm || i == total) {
					k := i / total
					heap[k] = liveHeap()
					e, h, o := flowState(ranks)
					state[k] = [3]int{e, h, o}
				}
			}
			return nil
		})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	selfChecked(t)
	if state[1] != state[0] || state[1][0] != 0 {
		t.Errorf("flow entries, held wrappers and one-shot numbers: %v after %d barriers, %v after %d; want none", state[0], warm, state[1], total)
	}
	grew := int64(heap[1]) - int64(heap[0])
	t.Logf("live heap %d B after %d barriers, %+d B after %d more", heap[0], warm, grew, total-warm)
	if per := float64(grew) / (total - warm); per > 8 {
		t.Errorf("the live heap grew %d B over %d barriers, %.1f B each: a collective leaves state behind again", grew, total-warm, per)
	}
}

// TestCollectivesDropDuplicatedSteps: allgathers, barriers and broadcasts
// on 4 ranks over a fabric that duplicates and reorders packets, with no
// link layer, so the one-shot lane is what tells a second copy of a step
// from a new message. Every rank ends with the right bytes; no copy waits
// unexpected afterwards; and the landing credits are conserved: each
// receiver returned one credit for every data wrapper that reached it,
// consumed or dropped as a copy, so every sender's budget is whole.
func TestCollectivesDropDuplicatedSteps(t *testing.T) {
	const n, per, budget, rounds = 4, 64, 4, 20
	w := sim.NewWorld()
	f := simnet.NewFabric(w, n, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		t.Fatal(err)
	}
	if err := f.SetFaults(simnet.FaultProfile{Seed: 5, Rails: []simnet.RailFaults{{DupProb: 0.3, ReorderProb: 0.3}}}); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Credits = budget // a batch of one: a receiver owes nothing once drained
	rec := trace.NewRecorder()
	opts.Tracer = rec
	ranks, err := madmpi.InitAll(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewGroup(w)
	for _, m := range ranks {
		me, c := m.Rank(), m.CommWorld()
		g.Go(fmt.Sprintf("rank-%d", me), func(p *sim.Proc) error {
			for r := range rounds {
				block := func(from int) []byte { return bytes.Repeat([]byte{byte(r*n + from)}, per) }
				got, want := make([]byte, n*per), make([]byte, 0, n*per)
				for from := range n {
					want = append(want, block(from)...)
				}
				if err := c.Allgather(p, block(me), got); err != nil {
					return fmt.Errorf("rank %d allgather %d: %w", me, r, err)
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d allgather %d: wrong bytes", me, r)
				}
				if err := c.Barrier(p); err != nil {
					return fmt.Errorf("rank %d barrier %d: %w", me, r, err)
				}
				root, buf := r%n, block(me)
				if err := c.Bcast(p, buf, root); err != nil {
					return fmt.Errorf("rank %d bcast %d: %w", me, r, err)
				}
				if !bytes.Equal(buf, block(root)) {
					return fmt.Errorf("rank %d bcast %d: wrong bytes", me, r)
				}
			}
			return nil
		})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	selfChecked(t)
	arrived := make([]int, n) // per node: data wrappers consumed or dropped as copies
	for _, ev := range rec.Events() {
		if ev.Kind == trace.Deliver && ev.Note == "data" || ev.Kind == trace.ProtoError {
			arrived[ev.Node]++
		}
	}
	dropped := 0
	for _, m := range ranks {
		e := m.Engine()
		dropped += e.Stats().ProtocolErrors
		if got := e.Stats().CreditsSent; got != arrived[e.NodeID()] {
			t.Errorf("node %d returned %d credits for %d data wrappers that reached it", e.NodeID(), got, arrived[e.NodeID()])
		}
		for peer := range n {
			if peer == m.Rank() {
				continue
			}
			gt := e.Gate(simnet.NodeID(peer))
			if k := gt.PendingUnexpected(); k != 0 {
				t.Errorf("node %d: %d copies from node %d wait unexpected for good", e.NodeID(), k, peer)
			}
			if c := gt.Credits(); c < budget {
				t.Errorf("node %d: %d credits toward node %d, under the budget of %d", e.NodeID(), c, peer, budget)
			}
		}
	}
	if dropped == 0 {
		t.Error("no duplicated step was dropped: the test exercised nothing")
	}
	if entries, held, once := flowState(ranks); entries+held+once != 0 {
		t.Errorf("%d flow entries, %d held wrappers and %d one-shot numbers above the floor remain", entries, held, once)
	}
}
