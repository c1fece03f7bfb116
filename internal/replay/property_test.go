package replay

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// The record→replay fidelity property: for a randomized workload, a
// recording replayed under the SAME strategy reproduces the original
// live run exactly — identical per-node Stats (wire bytes, packet
// count, rendezvous/credit counters, everything) and the identical
// scheduling timeline. Replay under a different strategy changes the
// schedule; replay under the same one must change nothing.

// propOp is one generated application operation.
type propOp struct {
	gap             sim.Time // sleep before issuing
	send            bool
	tag             core.Tag
	segs            []int
	prio, unordered bool
	rail            int
}

// propPlan is a full generated workload: per-node op sequences plus the
// engine personality, all drawn deterministically from one seed. With
// splitProcs set, each node runs its ops from TWO concurrent processes
// (even/odd interleave) — the live pattern replay's per-op procs must
// also reproduce.
type propPlan struct {
	rails      []simnet.Profile
	opts       core.Options
	perNode    [2][]propOp
	splitProcs bool
}

func genPlan(rng *rand.Rand) propPlan {
	var plan propPlan
	plan.rails = []simnet.Profile{simnet.MX10G()}
	if rng.Intn(2) == 0 {
		plan.rails = append(plan.rails, simnet.QsNetII())
	}
	plan.opts = core.DefaultOptions()
	plan.opts.Strategy = []string{"default", "aggreg", "split", "prio", "adaptive"}[rng.Intn(5)]
	plan.opts.Credits = []int{0, 0, 8, 16}[rng.Intn(4)]
	plan.opts.MaxGrants = []int{0, 0, 2}[rng.Intn(3)]
	plan.opts.FlushBacklog = []int{0, 0, 4}[rng.Intn(3)]
	plan.opts.Anticipate = rng.Intn(3) == 0
	plan.splitProcs = rng.Intn(2) == 0

	sizes := []int{16, 128, 1 << 10, 4 << 10, 40 << 10, 80 << 10}
	nextTag := core.Tag(1)
	// Flows in both directions; the reverse direction is lighter.
	for dir := 0; dir < 2; dir++ {
		src, dst := dir, 1-dir
		flows := 2 + rng.Intn(4)
		if dir == 1 {
			flows = rng.Intn(3)
		}
		var sends, recvs []propOp
		for f := 0; f < flows; f++ {
			tag := nextTag
			nextTag++
			size := sizes[rng.Intn(len(sizes))]
			nseg := 1 + rng.Intn(3)
			segs := splitSize(size, nseg)
			count := 1 + rng.Intn(4)
			rail := -1
			if rng.Intn(5) == 0 {
				rail = rng.Intn(len(plan.rails))
			}
			for m := 0; m < count; m++ {
				sends = append(sends, propOp{
					send: true, tag: tag, segs: segs, rail: rail,
					prio:      rng.Intn(4) == 0,
					unordered: rng.Intn(6) == 0,
				})
				recvs = append(recvs, propOp{tag: tag, segs: []int{sum(segs)}})
			}
		}
		rng.Shuffle(len(sends), func(i, j int) { sends[i], sends[j] = sends[j], sends[i] })
		rng.Shuffle(len(recvs), func(i, j int) { recvs[i], recvs[j] = recvs[j], recvs[i] })
		for i := range sends {
			sends[i].gap = sim.Time(rng.Intn(3)) * 700 * sim.Nanosecond
		}
		for i := range recvs {
			recvs[i].gap = sim.Time(rng.Intn(2)) * 300 * sim.Nanosecond
		}
		// Receives post first within a node's sequence so a fast sender
		// cannot race ahead of a slow poster more than the generator
		// intends; both live run and replay see the same order anyway.
		plan.perNode[src] = append(plan.perNode[src], sends...)
		plan.perNode[dst] = append(plan.perNode[dst], recvs...)
	}
	return plan
}

func splitSize(size, nseg int) []int {
	if nseg <= 1 || size < nseg {
		return []int{size}
	}
	segs := make([]int, nseg)
	base := size / nseg
	for i := range segs {
		segs[i] = base
	}
	segs[nseg-1] += size - base*nseg
	return segs
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// sortWithinInstant canonicalizes a timeline by ordering events that
// share one virtual instant (their relative order is presentation, not
// schedule); events at distinct times keep their order.
func sortWithinInstant(evs []trace.Event) []trace.Event {
	out := append([]trace.Event(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// runLive executes the generated workload on a fresh cluster with
// recording and tracing enabled, returning what replay must reproduce.
func runLive(t *testing.T, plan propPlan) (*trace.Recording, []core.Stats, [][]trace.Event, sim.Time) {
	t.Helper()
	rec := trace.NewRecording()
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	for _, prof := range plan.rails {
		if _, err := f.AddNetwork(prof); err != nil {
			t.Fatal(err)
		}
	}
	engines := make([]*core.Engine, 2)
	tracers := make([]*trace.Recorder, 2)
	for node := range engines {
		opts := plan.opts
		opts.Record = rec
		tracers[node] = trace.NewRecorder()
		opts.Tracer = tracers[node]
		e, err := core.New(f, simnet.NodeID(node), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AttachFabric(f); err != nil {
			t.Fatal(err)
		}
		engines[node] = e
	}
	var completion sim.Time
	for node := 0; node < 2; node++ {
		eng := engines[node]
		peer := simnet.NodeID(1 - node)
		// One process per node, or two concurrent ones (even/odd ops)
		// when the plan exercises multi-process submission.
		streams := [][]propOp{plan.perNode[node]}
		if plan.splitProcs {
			var even, odd []propOp
			for i, op := range plan.perNode[node] {
				if i%2 == 0 {
					even = append(even, op)
				} else {
					odd = append(odd, op)
				}
			}
			streams = [][]propOp{even, odd}
		}
		for si, stream := range streams {
			ops := stream
			w.Spawn(fmt.Sprintf("live-node%d-p%d", node, si), func(p *sim.Proc) {
				var reqs []core.Request
				for _, op := range ops {
					if op.gap > 0 {
						p.Sleep(op.gap)
					}
					g := eng.Gate(peer)
					if op.send {
						var sopts []core.SendOption
						if op.prio {
							sopts = append(sopts, core.Priority())
						}
						if op.unordered {
							sopts = append(sopts, core.Unordered())
						}
						if op.rail >= 0 {
							sopts = append(sopts, core.OnRail(op.rail))
						}
						reqs = append(reqs, g.Isendv(p, op.tag, freshSegs(op.segs), sopts...))
					} else {
						reqs = append(reqs, g.Irecvv(p, op.tag, freshSegs(op.segs)))
					}
				}
				if err := core.WaitAll(p, reqs...); err != nil {
					t.Errorf("live node %d: %v", node, err)
				}
				if now := p.Now(); now > completion {
					completion = now
				}
			})
		}
	}
	if err := w.Run(); err != nil {
		t.Fatalf("live run: %v", err)
	}
	stats := make([]core.Stats, 2)
	events := make([][]trace.Event, 2)
	for node := range engines {
		stats[node] = engines[node].Stats()
		events[node] = tracers[node].Events()
	}
	return rec, stats, events, completion
}

// freshSegs gives a live operation its own zeroed buffer in the planned
// segment layout.
func freshSegs(lens []int) [][]byte {
	total := 0
	for _, n := range lens {
		total += n
	}
	return slice(make([]byte, total), lens)
}

func TestRecordReplaySameStrategyReproducesLiveRun(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := genPlan(rand.New(rand.NewSource(seed)))
			rec, liveStats, liveEvents, liveCompletion := runLive(t, plan)
			if rec.Len() == 0 {
				t.Fatal("generator produced an empty workload")
			}
			res, err := Run(rec, Config{}) // zero config: replay as recorded
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != plan.opts.Strategy {
				t.Errorf("replay strategy %q, recorded %q", res.Strategy, plan.opts.Strategy)
			}
			if res.Completion != liveCompletion {
				t.Errorf("completion: live %v, replay %v", liveCompletion, res.Completion)
			}
			for node := 0; node < 2; node++ {
				if !reflect.DeepEqual(liveStats[node], res.Stats[node]) {
					t.Errorf("node %d stats diverge:\n live:   %+v\n replay: %+v",
						node, liveStats[node], res.Stats[node])
				}
				le, re := liveEvents[node], res.Events[node]
				if plan.splitProcs {
					// Concurrent live submitters: the recording fixes the
					// entry instants but not the live processes' event
					// creation order WITHIN one instant, so the replayed
					// timeline may permute same-instant events. The
					// schedule itself — every event, its time, its
					// payload — must still match.
					le, re = sortWithinInstant(le), sortWithinInstant(re)
				}
				if !reflect.DeepEqual(le, re) {
					t.Errorf("node %d scheduling timeline diverges (%d live events, %d replayed)",
						node, len(le), len(re))
				}
			}
			if res.RequestErrors != 0 {
				t.Errorf("replay reported %d request errors", res.RequestErrors)
			}
		})
	}
}
