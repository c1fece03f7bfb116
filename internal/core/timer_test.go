package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"nmad/internal/sim"
)

// TestTimerQueueFiresInKernelOrder: an engine's deferred steps run in the
// order the kernel runs one closure per deferral scheduled through
// World.After, whatever the mix of delays. A seeded program mixes equal,
// varied and zero delays, pushes made at one instant from several events,
// and pushes made from inside a firing step at its own instant. Its steps
// are of two sorts:
//   - an eager receive's completion, truncated or not, whose hook logs
//     it and pushes its children;
//   - a step that must do nothing. These are a retransmit check of a
//     frame whose generation moved on, a void check, a delayed ack the
//     gate has since re-armed, and a probe of a rail that is not failed.
//
// The reference world schedules a no-op closure for each of the second
// sort, so both worlds schedule the same kernel events.
func TestTimerQueueFiresInKernelOrder(t *testing.T) {
	const (
		tops  = 150
		equal = 7 * sim.Nanosecond
	)
	type deferral struct {
		push  sim.Time // when a top-level deferral is pushed
		delay sim.Time
		kind  int   // 0 receive completion, 1 truncated, 2 a step that does nothing
		kids  []int // deferrals pushed when this one fires
	}
	type firing struct {
		id int
		at sim.Time
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var defs []deferral
		add := func() int {
			d := deferral{kind: rng.IntN(3)}
			switch rng.IntN(3) {
			case 1:
				d.delay = equal
			case 2:
				d.delay = sim.Time(rng.IntN(20))
			}
			defs = append(defs, d)
			return len(defs) - 1
		}
		for range tops {
			i := add()
			defs[i].push = sim.Time(rng.IntN(30))
		}
		for i := 0; i < len(defs) && len(defs) < 3*tops; i++ {
			if defs[i].kind != 2 && rng.IntN(3) == 0 {
				for range 1 + rng.IntN(2) {
					kid := add()
					defs[i].kids = append(defs[i].kids, kid)
				}
			}
		}

		// The reference: one closure per deferral.
		ref := sim.NewWorld()
		var want []firing
		var refPush func(i int)
		refPush = func(i int) {
			if defs[i].kind == 2 {
				ref.After(defs[i].delay, func() {})
				return
			}
			ref.After(defs[i].delay, func() {
				want = append(want, firing{i, ref.Now()})
				for _, kid := range defs[i].kids {
					refPush(kid)
				}
			})
		}
		for i := range tops {
			ref.At(defs[i].push, func() { refPush(i) })
		}
		run(t, ref)

		// The engine's queue.
		opts := DefaultOptions()
		opts.Reliability = true
		w, e, _ := testWorld(t, opts)
		g := e.Gate(1)
		g.lrx.ackPending = true
		stale := &linkFrame{eng: e, gen: 3}
		reqs := make([]RecvRequest, len(defs))
		var got []firing
		var push func(i int)
		fired := func(i int) {
			got = append(got, firing{i, w.Now()})
			for _, kid := range defs[i].kids {
				push(kid)
			}
		}
		hook := func(id uint32, err error) {
			if truncated := defs[id].kind == 1; truncated != errors.Is(err, ErrTruncated) {
				t.Errorf("seed %d: receive %d completed with %v", seed, id, err)
			}
			fired(int(id))
		}
		push = func(i int) {
			d := defs[i].delay
			switch defs[i].kind {
			case 0, 1:
				reqs[i].id, reqs[i].hook = uint32(i), hook
				e.after(d, &reqs[i], uint32(defs[i].kind))
			case 2:
				switch i % 4 {
				case 0:
					e.after(d, stale, stale.gen-1)
				case 1:
					e.after(d, (*linkFrame)(nil), 0)
				case 2:
					g.lrx.ackGen++
					e.after(d, g, g.lrx.ackGen-1)
				case 3:
					e.after(d, e.rails[0], 0)
				}
			}
		}
		for i := range tops {
			w.At(defs[i].push, func() { push(i) })
		}
		run(t, w)

		if !slices.Equal(got, want) {
			n := 0
			for n < min(len(got), len(want)) && got[n] == want[n] {
				n++
			}
			t.Fatalf("seed %d: %d steps fired, %d closures; first difference at firing %d", seed, len(got), len(want), n)
		}
		if w.Events() != ref.Events() {
			t.Errorf("seed %d: the queue took %d kernel events, the closures %d", seed, w.Events(), ref.Events())
		}
		if st := e.Stats(); st.Retransmits != 0 || st.WireBytes != 0 || !g.lrx.ackPending || stale.gen != 3 || e.rails[0].probing {
			t.Errorf("seed %d: a stale step acted: %d retransmissions, %d wire bytes, ack pending %v, frame generation %d, probing %v",
				seed, st.Retransmits, st.WireBytes, g.lrx.ackPending, stale.gen, e.rails[0].probing)
		}
	}
}
