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

// TestBlockingRequestsChecked: the request of a blocking Send, Ssend or
// Recv comes from the engine's free lists and is filed back before the
// call returns. Each case runs a blocking ping-pong — two flows between
// two engines, so each engine's lists hold more than one request and
// hand them out in a different order than they were taken — under the
// engine self-checks (selfcheck_test.go): a request filed back while an
// engine record still refers to it shows up as a wrong payload, an
// error, an over-completion panic or a leak in the drain audit. The run
// is repeated on a new pair and must reproduce the same timeline, Stats
// and receives, bytes and instants included.
func TestBlockingRequestsChecked(t *testing.T) {
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
			first := blockingPingPong(t, tc.opts, tc.profs, tc.faults, tc.ssend, tc.sizes, tc.room)
			again := blockingPingPong(t, tc.opts, tc.profs, tc.faults, tc.ssend, tc.sizes, tc.room)
			for _, msg := range takeSelfCheck("TestBlockingRequestsChecked") {
				t.Error(msg)
			}
			if !slices.Equal(first.timeline, again.timeline) {
				t.Errorf("the timeline of a second run differs (%d events, then %d)", len(first.timeline), len(again.timeline))
			}
			if !reflect.DeepEqual(first.stats, again.stats) {
				t.Errorf("Stats of a second run differ:\nfirst: %+v\nagain: %+v", first.stats, again.stats)
			}
			if !slices.Equal(first.recvs, again.recvs) {
				t.Errorf("the receives of a second run differ")
			}
			if len(first.recvs) != 2*2*blockingRounds {
				t.Errorf("%d receives, want %d", len(first.recvs), 2*2*blockingRounds)
			}
			for i, r := range first.recvs {
				if i > 0 && r.at < first.recvs[i-1].at {
					t.Errorf("receive %d returned at %v, before receive %d at %v", i, r.at, i-1, first.recvs[i-1].at)
				}
			}
			s := first.stats
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
			for _, r := range first.recvs {
				if r.err != want {
					t.Fatalf("receive at %v: err %v, want %v", r.at, r.err, want)
				}
			}
		})
	}
}

// blockingRounds is how many round trips each flow of a blocking
// ping-pong makes.
const blockingRounds = 6

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
				for i := 0; i < blockingRounds; i++ {
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
