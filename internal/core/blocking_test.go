package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// TestBlockingPooledEqualsFresh: the request of a blocking Send, Ssend or
// Recv comes from the engine's free lists, and recycling it must change
// nothing but what the run allocates. Each case runs the same blocking
// ping-pong twice — two flows between two engines, so each engine's
// lists hold more than one request and hand them out in a different
// order than they were taken — with recycling on and off, and demands
// the same timeline, the same Stats and the same received bytes, errors
// and instants. A request filed back while an engine record still
// refers to it shows up as a divergence, a wrong payload or an
// over-completion panic.
func TestBlockingPooledEqualsFresh(t *testing.T) {
	const big = 256 << 10 // above every rail's rendezvous threshold
	reliable := DefaultOptions()
	reliable.Reliability = true
	split := DefaultOptions()
	split.Strategy = "split"
	lossy := simnet.FaultProfile{Seed: 5, Rails: []simnet.RailFaults{{DropProb: 0.1}}}
	for _, tc := range []struct {
		name      string
		opts      Options
		profs     []simnet.Profile
		faults    simnet.FaultProfile
		ssend     bool
		sizes     []int // message sizes, cycled
		room      int   // receive buffer length
		truncated bool  // every receive ends in ErrTruncated
	}{
		{name: "eager", opts: DefaultOptions(), sizes: []int{64, 512}, room: 512},
		{name: "rendezvous", opts: split, profs: []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}, sizes: []int{big}, room: big},
		{name: "eager-truncated", opts: DefaultOptions(), sizes: []int{512}, room: 100, truncated: true},
		{name: "rendezvous-truncated", opts: split, profs: []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}, sizes: []int{big}, room: big / 3, truncated: true},
		{name: "ssend-eager", opts: DefaultOptions(), ssend: true, sizes: []int{64, 512}, room: 512},
		{name: "reliable-lossy", opts: reliable, faults: lossy, sizes: []int{512, big}, room: big},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pooled := blockingPingPong(t, tc.opts, tc.profs, tc.faults, tc.ssend, tc.sizes, tc.room)
			tc.opts.NoRecycle = true
			fresh := blockingPingPong(t, tc.opts, tc.profs, tc.faults, tc.ssend, tc.sizes, tc.room)
			for i, line := range pooled.timeline {
				if i >= len(fresh.timeline) || line != fresh.timeline[i] {
					t.Fatalf("timelines diverge at event %d of %d:\n  pooled: %s\n  fresh:  %s", i, len(pooled.timeline), line, fresh.timeline[min(i, len(fresh.timeline)-1)])
				}
			}
			if len(pooled.timeline) != len(fresh.timeline) {
				t.Errorf("timeline length: %d events pooled, %d fresh", len(pooled.timeline), len(fresh.timeline))
			}
			if !reflect.DeepEqual(pooled.stats, fresh.stats) {
				t.Errorf("Stats differ:\npooled: %+v\nfresh:  %+v", pooled.stats, fresh.stats)
			}
			if len(pooled.recvs) != len(fresh.recvs) {
				t.Fatalf("%d receives pooled, %d fresh", len(pooled.recvs), len(fresh.recvs))
			}
			for i, r := range pooled.recvs {
				if f := fresh.recvs[i]; r != f {
					t.Errorf("receive %d differs: pooled node %d at %v n=%d err=%v, fresh node %d at %v n=%d err=%v (payloads equal: %v)",
						i, r.node, r.at, r.n, r.err, f.node, f.at, f.n, f.err, r.payload == f.payload)
				}
			}
			s := pooled.stats
			if slices.Contains(tc.sizes, big) && s[0].RdvStarted+s[1].RdvStarted == 0 {
				t.Error("no rendezvous ran")
			}
			if tc.faults.Rails != nil && s[0].Retransmits+s[1].Retransmits == 0 {
				t.Error("nothing was retransmitted")
			}
			var want error
			if tc.truncated {
				want = ErrTruncated
			}
			for _, r := range pooled.recvs {
				if r.err != want {
					t.Fatalf("receive at %v: err %v, want %v", r.at, r.err, want)
				}
			}
		})
	}
}

// blockingRun is what a blocking ping-pong produced: every engine's
// timeline, both engines' Stats and, per receive, what it returned.
type blockingRun struct {
	timeline []string
	stats    [2]Stats
	recvs    []blockingRecv
}

// blockingRecv is one Recv's outcome, with the bytes it landed.
type blockingRecv struct {
	at      sim.Time
	node    int
	n       int
	err     error
	payload string
}

// blockingPingPong runs two flows of blocking ping-pongs between two
// engines: node 0 sends (Send, or Ssend) and then receives the echo on
// each flow; node 1 receives and echoes. Message i of a flow carries a
// pattern of its own, so a payload landing in the wrong receive cannot
// match the other run's.
func blockingPingPong(t *testing.T, opts Options, profs []simnet.Profile, faults simnet.FaultProfile, ssend bool, sizes []int, room int) blockingRun {
	t.Helper()
	const rounds = 6
	rec := trace.NewRecorder()
	opts.Tracer = rec
	w, e0, e1 := faultyPair(t, opts, faults, profs...)
	var out blockingRun
	send := (*Gate).Send
	if ssend {
		send = (*Gate).Ssend
	}
	for flow := Tag(1); flow <= 2; flow++ {
		side := func(node int, e *Engine, peer simnet.NodeID, first bool) func(p *sim.Proc) {
			return func(p *sim.Proc) {
				g := e.Gate(peer)
				buf := make([]byte, room)
				for i := 0; i < rounds; i++ {
					msg := make([]byte, sizes[i%len(sizes)])
					fillSeq(msg, byte(int(flow)*31+i*7+node))
					if first {
						if err := send(g, p, flow, msg); err != nil {
							t.Errorf("node %d send %d: %v", node, i, err)
						}
					}
					clear(buf)
					n, err := g.Recv(p, flow, buf)
					out.recvs = append(out.recvs, blockingRecv{at: p.Now(), node: node, n: n, err: err, payload: string(buf[:n])})
					want := make([]byte, sizes[i%len(sizes)])
					fillSeq(want, byte(int(flow)*31+i*7+1-node))
					if n != min(len(want), room) || !bytes.Equal(buf[:n], want[:n]) {
						t.Errorf("node %d flow %d receive %d: %d bytes, not the %d sent", node, flow, i, n, len(want))
					}
					if !first {
						if err := send(g, p, flow, msg); err != nil {
							t.Errorf("node %d send %d: %v", node, i, err)
						}
					}
				}
			}
		}
		w.Spawn(fmt.Sprintf("ping%d", flow), side(0, e0, 1, true))
		w.Spawn(fmt.Sprintf("pong%d", flow), side(1, e1, 0, false))
	}
	run(t, w)
	for _, ev := range rec.Events() {
		out.timeline = append(out.timeline, ev.String())
	}
	out.stats = [2]Stats{e0.Stats(), e1.Stats()}
	return out
}
