package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/sched"
)

// Allocation regression pins for the engine hot paths. The free-list
// recycling in pool.go exists to keep the marginal cost of a message
// small and flat; these tests measure that marginal cost directly —
// the difference in allocations between a long and a short run of the
// same workload, divided by the extra messages — so world and engine
// construction cancel out exactly. The ceilings are set ~30% above the
// measured figure: loose enough to absorb compiler-version drift,
// tight enough that reintroducing even one per-message allocation on
// the pinned path (a wrapper, a train header slice, a map insert)
// fails the test.

// allocEngines mirrors testWorld without *testing.T so workloads can
// run inside testing.AllocsPerRun; construction errors panic, which
// fails the test just as loudly. The rails are profs, or one MX rail.
func allocEngines(opts Options, profs ...simnet.Profile) (*sim.World, *Engine, *Engine) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	if len(profs) == 0 {
		profs = []simnet.Profile{simnet.MX10G()}
	}
	for _, p := range profs {
		if _, err := f.AddNetwork(p); err != nil {
			panic(err)
		}
	}
	mk := func(id simnet.NodeID) *Engine {
		e, err := New(f, id, opts)
		if err != nil {
			panic(err)
		}
		if err := e.AttachFabric(f); err != nil {
			panic(err)
		}
		return e
	}
	return w, mk(0), mk(1)
}

// marginalAllocs returns allocations per extra message between a short
// and a long run of the same workload.
func marginalAllocs(run func(msgs int), short, long int) float64 {
	run(4) // warm lazy runtime and package init paths out of the measurement
	a1 := testing.AllocsPerRun(5, func() { run(short) })
	a2 := testing.AllocsPerRun(5, func() { run(long) })
	return (a2 - a1) / float64(long-short)
}

// eagerWorkload pushes msgs eager-sized messages through one gate pair
// and receives them; buffers are reused so the measurement sees the
// engine's allocations, not the harness's. The sender never waits,
// unless wait asks it to wait out each send — the steady state, where
// every record a message used is back on its list before the next.
func eagerWorkload(opts Options, wait bool) func(msgs int) {
	return func(msgs int) {
		w, e0, e1 := allocEngines(opts)
		data := make([]byte, 512)
		buf := make([]byte, 1024)
		w.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				req := e0.Gate(1).Isend(p, 7, data)
				if wait {
					if err := req.Wait(p); err != nil {
						panic(err)
					}
				}
			}
		})
		w.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				if _, err := e1.Gate(0).Recv(p, 7, buf); err != nil {
					panic(err)
				}
			}
		})
		if err := w.Run(); err != nil {
			panic(err)
		}
	}
}

// The eager Isend path: wrapper, window push, election, train encode,
// NIC round trip, dispatch, match, completion. With recycling the cycle
// allocates the send request its caller keeps (the blocking Recv's is
// the engine's); the rest of the measured 2.38 is the free lists growing
// with the backlog of a sender that never waits (wrappers, unexpected
// entries, frames, flights).
func TestAllocsEagerIsendPath(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	opts := DefaultOptions()
	opts.Strategy = "aggreg"
	got := marginalAllocs(eagerWorkload(opts, false), 64, 320)
	t.Logf("eager Isend path: %.2f allocs per message", got)
	const ceiling = 3.2
	if got > ceiling {
		t.Errorf("eager Isend path allocates %.2f per message, ceiling %.1f — a hot-path allocation crept back in", got, ceiling)
	}
}

// The flush path: a FlushBacklog budget forces periodic whole-backlog
// elections, the path that builds the largest trains (and therefore
// leaned hardest on per-train header/segment slice churn before the
// encode scratch existed).
func TestAllocsFlushPath(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	opts := DefaultOptions()
	opts.Strategy = "aggreg"
	opts.FlushBacklog = 4
	got := marginalAllocs(eagerWorkload(opts, false), 64, 320)
	t.Logf("flush path: %.2f allocs per message", got)
	const ceiling = 5.6 // measured 4.30
	if got > ceiling {
		t.Errorf("flush path allocates %.2f per message, ceiling %.1f — a hot-path allocation crept back in", got, ceiling)
	}
}

// The link layer adds nothing per message on a lossless fabric: its
// frame records are recycled, its headers are encoded into the train's
// scratch or on the stack, and its timers and delayed acks are callbacks
// bound once per record or gate.
func TestAllocsReliableEagerPath(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	opts := DefaultOptions()
	opts.Strategy = "aggreg"
	plain := marginalAllocs(eagerWorkload(opts, true), 512, 1024)
	opts.Reliability = true
	reliable := marginalAllocs(eagerWorkload(opts, true), 512, 1024)
	t.Logf("eager Isend path: %.2f allocs per message with reliability, %.2f without", reliable, plain)
	if reliable > plain+0.1 {
		t.Errorf("the link layer allocates %.2f per message on a lossless fabric, want at most 0.1", reliable-plain)
	}
}

// TestAllocsBlockingSendRecv: a blocking call's request is the engine's,
// taken from a free list and filed back before the call returns, so a
// steady ping-pong of blocking calls allocates nothing per message —
// with Send or with Ssend, whose acknowledgement adds a control entry
// and nothing on the heap.
func TestAllocsBlockingSendRecv(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	for _, tc := range []struct {
		name string
		send func(g *Gate, p *sim.Proc, tag Tag, data []byte) error
	}{
		{"Send", (*Gate).Send},
		{"Ssend", (*Gate).Ssend},
	} {
		pingpong := func(msgs int) {
			w, e0, e1 := allocEngines(DefaultOptions())
			out, in := make([]byte, 64), make([]byte, 64)
			side := func(e *Engine, peer simnet.NodeID, first bool) func(p *sim.Proc) {
				return func(p *sim.Proc) {
					g := e.Gate(peer)
					for i := 0; i < msgs; i++ {
						if first {
							if err := tc.send(g, p, 7, out); err != nil {
								panic(err)
							}
						}
						if _, err := g.Recv(p, 7, in); err != nil {
							panic(err)
						}
						if !first {
							if err := tc.send(g, p, 7, out); err != nil {
								panic(err)
							}
						}
					}
				}
			}
			w.Spawn("ping", side(e0, 1, true))
			w.Spawn("pong", side(e1, 0, false))
			if err := w.Run(); err != nil {
				panic(err)
			}
		}
		got := marginalAllocs(pingpong, 64, 320) / 2 // two messages a round trip
		t.Logf("blocking %s/Recv: %.3f allocs per message", tc.name, got)
		if got > 0.05 {
			t.Errorf("a blocking %s/Recv message allocates %.3f objects, want 0: the call's request comes from the heap again", tc.name, got)
		}
	}
}

// The same eager workload with recycling disabled must allocate
// strictly more than the pooled run — if it does not, the pools are
// dead code and the NoRecycle A/B (and the pooling property test that
// relies on it) is comparing a path against itself.
func TestAllocsRecyclingActuallyRecycles(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	opts := DefaultOptions()
	opts.Strategy = "aggreg"
	pooled := marginalAllocs(eagerWorkload(opts, false), 64, 320)
	opts.NoRecycle = true
	fresh := marginalAllocs(eagerWorkload(opts, false), 64, 320)
	t.Logf("pooled %.2f vs no-recycle %.2f allocs per message", pooled, fresh)
	if pooled >= fresh {
		t.Errorf("recycling saves nothing: %.2f allocs pooled vs %.2f without", pooled, fresh)
	}
}

// A request is one allocation per message, and each fills its malloc
// size class to the byte: one more word rounds every message up a class.
// SendRequest is 64 bytes. RecvRequest is 128: the 104 bytes of
// completion and match state plus the 24-byte slice header of the
// single-segment landing area, which would otherwise be a second
// allocation of its own.
func TestRequestSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(SendRequest{}); got > 64 {
		t.Errorf("SendRequest is %d bytes, over the 64-byte size class", got)
	}
	if got := unsafe.Sizeof(RecvRequest{}); got > 128 {
		t.Errorf("RecvRequest is %d bytes, over the 128-byte size class", got)
	}
}

// retransmitWorkload sends one eager message into a rail that is dark
// for the first `dark` of the run: the link layer re-injects the frame
// every RetransmitTimeout until the outage ends. It returns how many
// retransmissions that took.
func retransmitWorkload(dark sim.Time) int {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		panic(err)
	}
	fp := simnet.FaultProfile{Rails: []simnet.RailFaults{{Outages: []simnet.Outage{{At: 0, Duration: dark}}}}}
	if err := f.SetFaults(fp); err != nil {
		panic(err)
	}
	opts := DefaultOptions()
	opts.Reliability = true
	engines, err := NewEngines(f, func(int) Options { return opts })
	if err != nil {
		panic(err)
	}
	w.Spawn("send", func(p *sim.Proc) { engines[0].Gate(1).Isend(p, 7, make([]byte, 512)) })
	w.Spawn("recv", func(p *sim.Proc) {
		if _, err := engines[1].Gate(0).Recv(p, 7, make([]byte, 1024)); err != nil {
			panic(err)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return engines[0].Stats().Retransmits
}

// Observation costs nothing when off: with no tracer attached, a
// retransmission must not format the note of the trace event nobody
// records. Measured like the eager path — the difference between a long
// and a short outage, per extra retransmission. The timer, the
// transaction and the NIC's events cost nothing (the link frame's
// callbacks are bound once, the flight is recycled), so one fmt.Sprintf
// fails it.
func TestAllocsRetransmitWithoutTracer(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const short, long = 5 * sim.Millisecond, 25 * sim.Millisecond
	retransmitWorkload(short)
	var rShort, rLong int
	a1 := testing.AllocsPerRun(5, func() { rShort = retransmitWorkload(short) })
	a2 := testing.AllocsPerRun(5, func() { rLong = retransmitWorkload(long) })
	if rLong-rShort < 50 {
		t.Fatalf("%d and %d retransmissions: the outages do not differ enough to measure", rShort, rLong)
	}
	got := (a2 - a1) / float64(rLong-rShort)
	t.Logf("retransmission without tracer: %.2f allocs each (%d vs %d retransmissions)", got, rShort, rLong)
	const ceiling = 0.5 // measured 0, exactly: the run is deterministic
	if got > ceiling {
		t.Errorf("a retransmission allocates %.2f with no tracer attached, ceiling %.1f — the trace note is being built for nobody again", got, ceiling)
	}
}

// rendezvousWorkload sends msgs blocking 4 MB messages from node 0 to
// node 1 under "split" over MX and Quadrics — the bulk-4MB-2rail shape:
// the body plan, one RDMA chain per rail and the rendezvous state of both
// sides, per message — with the link-layer reliability protocol on or off.
func rendezvousWorkload(reliable bool) func(msgs int) {
	return func(msgs int) { rendezvousRun(msgs, reliable)() }
}

// rendezvousRun builds rendezvousWorkload's engines and buffers and
// returns what runs it.
func rendezvousRun(msgs int, reliable bool) func() {
	opts := DefaultOptions()
	opts.Strategy = "split"
	opts.Reliability = reliable
	w, e0, e1 := allocEngines(opts, simnet.MX10G(), simnet.QsNetII())
	data, buf := make([]byte, 4<<20), make([]byte, 4<<20)
	return func() {
		w.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				if err := e0.Gate(1).Send(p, 7, data); err != nil {
					panic(err)
				}
			}
		})
		w.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				if _, err := e1.Gate(0).Recv(p, 7, buf); err != nil {
					panic(err)
				}
			}
		})
		if err := w.Run(); err != nil {
			panic(err)
		}
	}
}

// The rendezvous path: the transaction state of both sides, the body
// plan, the chunk gather lists and the RDMA chains are recycled, and the
// blocking Send and Recv run on the engine's own requests, so a large
// message leaves nothing on the heap, reliable or not.
func TestAllocsRendezvousPath(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	for _, reliable := range []bool{false, true} {
		got := marginalAllocs(rendezvousWorkload(reliable), 4, 24)
		t.Logf("rendezvous path, reliability %v: %.2f allocs per 4 MB message", reliable, got)
		const ceiling = 0.5 // measured 0.00 either way
		if got > ceiling {
			t.Errorf("rendezvous path (reliability %v) allocates %.2f per message, ceiling %.1f — a per-message allocation is back in the rendezvous state", reliable, got, ceiling)
		}
	}
}

// TestRendezvousDrawsNoFrame: a body byte is copied once, by the NIC from
// the sender's memory into the receiver's when the chunk's DMA read ends,
// so a 4 MB rendezvous draws no frame for its body — not even from a cold
// fabric, whose frame list starts empty, and not under reliability, whose
// sender keeps the caller's memory pending instead of a copy of it.
// Everything the engines, the NICs and the rendezvous state allocate over
// a run from cold stays under 64 KB per message; one body frame per
// chunk, recycled or not, reads over 1 MB per message across four.
func TestRendezvousDrawsNoFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	for _, reliable := range []bool{false, true} {
		rendezvousWorkload(reliable)(1) // warm lazy runtime and package init paths
		const msgs = 4
		run := rendezvousRun(msgs, reliable)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		perMsg := (m1.TotalAlloc - m0.TotalAlloc) / msgs
		t.Logf("rendezvous from a cold fabric, reliability %v: %d bytes allocated per 4 MB message", reliable, perMsg)
		if perMsg >= 64<<10 {
			t.Errorf("a 4 MB rendezvous (reliability %v) allocates %d bytes per message from cold, want under 64 KB: a body frame is back", reliable, perMsg)
		}
	}
}

// TestPlanBodyOverLiveRails: a body plan is offered the live rails only,
// surveyed into the engine's scratch. With rail 0 of two failed, "split"
// has nothing to split over and the plan streams the whole body on rail
// 1; neither that plan nor a healthy two-rail one makes a heap object.
func TestPlanBodyOverLiveRails(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = "split"
	_, e0, _ := allocEngines(opts, simnet.MX10G(), simnet.QsNetII())
	const size = 4 << 20
	if plan := e0.planBody(size); len(plan) != 2 {
		t.Fatalf("healthy plan %v, want a share on each rail", plan)
	}
	if allocs := testing.AllocsPerRun(100, func() { e0.planBody(size) }); allocs != 0 {
		t.Errorf("healthy body plan: %.1f allocations, want 0", allocs)
	}
	e0.rails[0].failed = true
	want := []sched.BodyShare{{Rail: 1, Offset: 0, Size: size}}
	if plan := e0.planBody(size); !slices.Equal(plan, want) {
		t.Fatalf("plan with rail 0 failed: %v, want %v", plan, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { e0.planBody(size) }); allocs != 0 {
		t.Errorf("body plan with rail 0 failed: %.1f allocations, want 0", allocs)
	}
}
