package main

import (
	"embed"
	"errors"
	"fmt"
	"sort"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/replay"
	"nmad/internal/scenario"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// runner executes one repetition of a workload on a freshly built
// machine. Repetitions of one runner are identical in virtual time.
type runner func(o repOpts) (repResult, error)

// workload is one set of inputs the benchmark runs. prepare generates
// the inputs from the seed; the program under test only ever sees those.
// scale shrinks the repetition (1 is the benchmark's size; the tests use
// about 1/100).
type workload struct {
	name    string
	prepare func(seed uint64, scale float64) (runner, error)
}

// Full-scale repetition sizes. A repetition is kept short (0.1-0.3 s of
// host time on a small shared box, the replay excepted): host cost is
// read off the fastest repetition of a run, and many short repetitions
// find a quiet moment of a busy machine more surely than a few long ones.
const (
	pingpongIters   = 20_000
	multiflowIters  = 2_000
	multiflowFlows  = 16
	bulkMsgs        = 150
	bulkBytes       = 4 << 20
	incastSenders   = 16
	incastMsgs      = 750
	incastBytes     = 1 << 10
	incastWindow    = 64
	incastFaultSeed = 42
	ringNodes       = 1024
	ringOpsPerNode  = 38
	corpusRunsPerRp = 8
)

// The six workloads, each chosen because a different part of the stack
// does its work (BENCHMARK.json and README.md carry the same reasons).
var workloads = []workload{
	// One wrapper in the window at a time: proc switches and fixed
	// per-message cost dominate, optimizer and copies idle.
	{"pingpong-64B", preparePingpong},
	// 16 flows per ping under aggreg: election, aggregation, wire
	// encode/decode and rx matching do the work.
	{"multiflow-16x256B", prepareMultiflow},
	// 4 MB rendezvous sends split over two rails: body planning and
	// NIC/iovec byte copies dominate, events are few.
	{"bulk-4MB-2rail", prepareBulk},
	// 16 senders into one engine at 1% drop: the receive path, credits,
	// resequencing and retransmission carry the load.
	{"incast-16to1-lossy", prepareIncast},
	// 1024-node composite ring replayed: deep event queue, a proc per
	// op, tracers and the replay harness dominate.
	{"ring-replay-1024", prepareRing},
	// Eight short scenarios parsed and run: cluster construction, YAML,
	// the job queue and fault events; no steady state.
	{"scenario-corpus", prepareCorpus},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

var mx = []simnet.Profile{simnet.MX10G()}

// pingpong-64B — paper §5.1 / Fig. 2a: MAD-MPI Send/Recv of 64 bytes
// between two nodes on one MX rail. Latency is half the round trip of
// each iteration; an op is one Send or Recv (four per iteration).
func preparePingpong(seed uint64, scale float64) (runner, error) {
	const size = 64
	iters := scaled(pingpongIters, scale)
	pattern := seededBytes(seed, size)
	lat := make([]sim.Time, iters)
	return func(o repOpts) (repResult, error) {
		res := repResult{ops: 4 * iters, lat: lat}
		c, err := buildCluster(o, 2, mx, core.DefaultOptions(), nil, true)
		if err != nil {
			return res, err
		}
		sendSpan, recvSpan := o.spans.calls("madmpi.Comm.Send"), o.spans.calls("madmpi.Comm.Recv")
		var pf procFailure
		// exchange is one side's half of an iteration; echo selects the
		// responder, which receives first and returns what it got.
		exchange := func(p *sim.Proc, comm *madmpi.Comm, peer int, out, in []byte, idx uint64, echo bool) {
			send := func(buf []byte) {
				s := sendSpan.enter()
				err := comm.Send(p, buf, peer, 0)
				sendSpan.leave(s)
				if err != nil {
					pf.note("send", err)
				}
			}
			if !echo {
				stamp(out, idx)
				send(out)
			}
			s := recvSpan.enter()
			_, err := comm.Recv(p, in, peer, 0)
			recvSpan.leave(s)
			switch {
			case err != nil:
				pf.note("recv", err)
			case !intact(in, pattern, idx, o.full):
				pf.note("recv", errors.New("payload mismatch"))
			default:
				res.payload += size
			}
			if echo {
				send(in)
			}
		}
		c.w.Spawn("ping", func(p *sim.Proc) {
			comm := c.mpis[0].CommWorld()
			out, in := append([]byte(nil), pattern...), make([]byte, size)
			for i := 0; i < iters; i++ {
				t0 := p.Now()
				exchange(p, comm, 1, out, in, uint64(i), false)
				lat[i] = (p.Now() - t0) / 2
			}
			res.completion = p.Now()
		})
		c.w.Spawn("pong", func(p *sim.Proc) {
			comm := c.mpis[1].CommWorld()
			in := make([]byte, size)
			for i := 0; i < iters; i++ {
				exchange(p, comm, 0, nil, in, uint64(i), true)
			}
		})
		err = c.run(&res)
		res.failed += pf.n
		return res, errors.Join(err, pf.first)
	}, nil
}

// multiflow-16x256B — paper §5.2 / Fig. 3b: each ping is 16 Isends of
// 256 bytes on 16 communicators, completed by Waitall, under the aggreg
// strategy. Latency is half the round trip of each iteration; an op is
// one Isend or Irecv (64 per iteration).
func prepareMultiflow(seed uint64, scale float64) (runner, error) {
	const size, flows = 256, multiflowFlows
	iters := scaled(multiflowIters, scale)
	pattern := seededBytes(seed, size)
	lat := make([]sim.Time, iters)
	return func(o repOpts) (repResult, error) {
		res := repResult{ops: 4 * flows * iters, lat: lat}
		opts := core.DefaultOptions()
		opts.Strategy = "aggreg"
		c, err := buildCluster(o, 2, mx, opts, nil, true)
		if err != nil {
			return res, err
		}
		isendSpan, irecvSpan := o.spans.calls("madmpi.Comm.Isend"), o.spans.calls("madmpi.Comm.Irecv")
		waitSpan := o.spans.calls("madmpi.Waitall")
		var pf procFailure
		// side is one rank's state: its communicators (dup'd in the same
		// order on both ranks, so the ids agree), buffers and requests.
		type side struct {
			comms   []*madmpi.Comm
			out, in [][]byte
			reqs    []*madmpi.Request
		}
		newSide := func(rank int) *side {
			s := &side{reqs: make([]*madmpi.Request, flows)}
			world := c.mpis[rank].CommWorld()
			for k := 0; k < flows; k++ {
				s.comms = append(s.comms, world.Dup())
				s.out = append(s.out, append([]byte(nil), pattern...))
				s.in = append(s.in, make([]byte, size))
			}
			return s
		}
		waitall := func(p *sim.Proc, s *side, what string) {
			t := waitSpan.enter()
			err := madmpi.Waitall(p, s.reqs...)
			waitSpan.leave(t)
			if err != nil {
				pf.note(what, err)
			}
		}
		sendAll := func(p *sim.Proc, s *side, peer int, bufs [][]byte) {
			for k := 0; k < flows; k++ {
				t := isendSpan.enter()
				s.reqs[k] = s.comms[k].Isend(p, bufs[k], peer, 0)
				isendSpan.leave(t)
			}
			waitall(p, s, "send")
		}
		recvAll := func(p *sim.Proc, s *side, peer, iter int) {
			for k := 0; k < flows; k++ {
				t := irecvSpan.enter()
				s.reqs[k] = s.comms[k].Irecv(p, s.in[k], peer, 0)
				irecvSpan.leave(t)
			}
			waitall(p, s, "recv")
			for k := 0; k < flows; k++ {
				if intact(s.in[k], pattern, uint64(iter*flows+k), o.full) {
					res.payload += size
				} else {
					pf.note("recv", errors.New("payload mismatch"))
				}
			}
		}
		c.w.Spawn("ping", func(p *sim.Proc) {
			s := newSide(0)
			for i := 0; i < iters; i++ {
				t0 := p.Now()
				for k := 0; k < flows; k++ {
					stamp(s.out[k], uint64(i*flows+k))
				}
				sendAll(p, s, 1, s.out)
				recvAll(p, s, 1, i)
				lat[i] = (p.Now() - t0) / 2
			}
			res.completion = p.Now()
		})
		c.w.Spawn("pong", func(p *sim.Proc) {
			s := newSide(1)
			for i := 0; i < iters; i++ {
				recvAll(p, s, 0, i)
				sendAll(p, s, 0, s.in)
			}
		})
		err = c.run(&res)
		res.failed += pf.n
		return res, errors.Join(err, pf.first)
	}, nil
}

// bulk-4MB-2rail — blocking 4 MB sends from node 0 to node 1 over MX +
// Quadrics under the split strategy. Latency runs from the start of the
// Send to the return of the matching Recv; an op is one Send or Recv.
func prepareBulk(seed uint64, scale float64) (runner, error) {
	msgs := scaled(bulkMsgs, scale)
	pattern := seededBytes(seed, bulkBytes)
	lat := make([]sim.Time, msgs)
	started := make([]sim.Time, msgs)
	return func(o repOpts) (repResult, error) {
		res := repResult{ops: 2 * msgs, lat: lat}
		opts := core.DefaultOptions()
		opts.Strategy = "split"
		rails := []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}
		c, err := buildCluster(o, 2, rails, opts, nil, false)
		if err != nil {
			return res, err
		}
		sendSpan, recvSpan := o.spans.calls("core.Gate.Send"), o.spans.calls("core.Gate.Recv")
		const tag = core.Tag(7)
		var pf procFailure
		c.w.Spawn("sender", func(p *sim.Proc) {
			g := c.engines[0].Gate(1)
			out := append([]byte(nil), pattern...)
			for i := 0; i < msgs; i++ {
				stamp(out, uint64(i))
				started[i] = p.Now()
				t := sendSpan.enter()
				err := g.Send(p, tag, out)
				sendSpan.leave(t)
				if err != nil {
					pf.note("send", err)
				}
			}
		})
		c.w.Spawn("receiver", func(p *sim.Proc) {
			g := c.engines[1].Gate(0)
			in := make([]byte, bulkBytes)
			for i := 0; i < msgs; i++ {
				t := recvSpan.enter()
				n, err := g.Recv(p, tag, in)
				recvSpan.leave(t)
				lat[i] = p.Now() - started[i]
				switch {
				case err != nil:
					pf.note("recv", err)
				case !intact(in[:n], pattern, uint64(i), o.full):
					pf.note("recv", errors.New("payload mismatch"))
				default:
					res.payload += int64(n)
				}
			}
			res.completion = p.Now()
		})
		err = c.run(&res)
		res.failed += pf.n
		return res, errors.Join(err, pf.first)
	}, nil
}

// incast-16to1-lossy — 16 senders each keep up to 64 sends of 1 KB in
// flight toward node 0, which drains each flow with blocking receives;
// Credits=32, MaxGrants=4, reliability on, and the fabric drops 1% of
// packets. Latency runs from the Isend call to the return of that
// message's Recv; an op is one Isend or Recv.
//
// The fault seed is a constant of the workload, not the benchmark seed:
// which packets are lost moves completion by ~2% and the p99 latency by
// ~5% from one fault seed to the next, which would drown every bound on
// the virtual-time metrics. The benchmark seed still draws the payload.
func prepareIncast(seed uint64, scale float64) (runner, error) {
	const senders, window = incastSenders, incastWindow
	msgs := scaled(incastMsgs, scale)
	pattern := seededBytes(seed, incastBytes)
	lat := make([]sim.Time, senders*msgs)
	sent := make([]sim.Time, senders*msgs)
	faults := simnet.UniformLoss(incastFaultSeed, 0.01, 1)
	return func(o repOpts) (repResult, error) {
		res := repResult{ops: 2 * senders * msgs, lat: lat}
		opts := core.DefaultOptions()
		opts.Credits = 32
		opts.MaxGrants = 4
		opts.Reliability = true
		c, err := buildCluster(o, senders+1, mx, opts, &faults, false)
		if err != nil {
			return res, err
		}
		isendSpan, recvSpan := o.spans.calls("core.Gate.Isend"), o.spans.calls("core.Gate.Recv")
		var pf procFailure
		var done sim.Time
		for s := 1; s <= senders; s++ {
			base := (s - 1) * msgs
			tag := core.Tag(s)
			c.w.Spawn(fmt.Sprintf("sender-%d", s), func(p *sim.Proc) {
				g := c.engines[s].Gate(0)
				// The window of in-flight sends: a slot's buffer is
				// rewritten only once its previous send has completed.
				var reqs [window]*core.SendRequest
				var bufs [window][]byte
				for i := range bufs {
					bufs[i] = append([]byte(nil), pattern...)
				}
				retire := func(slot int) {
					if reqs[slot] == nil {
						return
					}
					if err := reqs[slot].Wait(p); err != nil {
						pf.note("send", err)
					}
					reqs[slot] = nil
				}
				for m := 0; m < msgs; m++ {
					slot := m % window
					retire(slot)
					stamp(bufs[slot], uint64(base+m))
					sent[base+m] = p.Now()
					t := isendSpan.enter()
					reqs[slot] = g.Isend(p, tag, bufs[slot])
					isendSpan.leave(t)
				}
				for slot := range reqs {
					retire(slot)
				}
			})
			c.w.Spawn(fmt.Sprintf("drain-%d", s), func(p *sim.Proc) {
				g := c.engines[0].Gate(simnet.NodeID(s))
				in := make([]byte, incastBytes)
				for m := 0; m < msgs; m++ {
					t := recvSpan.enter()
					n, err := g.Recv(p, tag, in)
					recvSpan.leave(t)
					lat[base+m] = p.Now() - sent[base+m]
					switch {
					case err != nil:
						pf.note("recv", err)
					case !intact(in[:n], pattern, uint64(base+m), o.full):
						pf.note("recv", errors.New("payload mismatch"))
					default:
						res.payload += int64(n)
					}
				}
				done = max(done, p.Now())
			})
		}
		err = c.run(&res)
		res.completion = done
		res.failed += pf.n
		return res, errors.Join(err, pf.first)
	}, nil
}

// ringConfig restates the engine-speed figure's composite: the canonical
// op mix (bulk stream, small-flow burst, one rendezvous, priority control
// and reply) with byte counts slimmed so 1024 nodes stay small.
func ringConfig() replay.CompositeConfig {
	cfg := replay.CanonicalConfig()
	cfg.Bulk = 2 << 10
	cfg.NBulk = 8
	cfg.Large = 32 << 10
	return cfg
}

// recordRing records the composite ring and checks its size.
func recordRing(nodes int) (*trace.Recording, error) {
	rec, err := replay.RecordCompositeRing(ringConfig(), nodes)
	if err != nil {
		return nil, err
	}
	if got, want := rec.Len(), ringOpsPerNode*nodes; got != want {
		return nil, fmt.Errorf("ring recording at %d nodes has %d ops, want %d", nodes, got, want)
	}
	return rec, nil
}

// ring-replay-1024 — the engine-speed point: the composite ring recorded
// at 1024 nodes during set-up, then replay.Run per repetition with the
// per-node tracers it always attaches. An op is one recorded Isend or
// Irecv. Latency (computed on the warm-up only, from the replay's own
// timeline) runs from a send entering the collect layer to its match
// with a receive on the destination node. The seed has nothing to vary:
// a recording carries sizes and instants, no payload bytes.
func prepareRing(_ uint64, scale float64) (runner, error) {
	nodes := max(2, scaled(ringNodes, scale))
	rec, err := recordRing(nodes)
	if err != nil {
		return nil, err
	}
	var sentBytes int64
	for _, op := range rec.Ops() {
		if op.Kind == trace.OpSend {
			for _, n := range op.Segs {
				sentBytes += int64(n)
			}
		}
	}
	return func(o repOpts) (repResult, error) {
		res := repResult{ops: rec.Len()}
		o.spans.begin("replay.Run")
		out, err := replay.Run(rec, replay.Config{})
		o.spans.end()
		if err != nil {
			return res, err
		}
		res.completion = out.Completion
		res.failed = out.RequestErrors
		for _, s := range out.Stats {
			sumStats(&res.stats, s)
			res.failed += checkDrained(s)
		}
		// Replayed payloads are zeroes; what can be verified is that
		// every request completed without error and that the engines
		// moved exactly the bytes the recording offered.
		if moved := res.stats.EagerBytes + res.stats.BodyBytes; moved == sentBytes {
			res.payload = sentBytes
		} else {
			res.failed++
		}
		if o.full || o.tracer != noTracer {
			for _, evs := range out.Events {
				res.events += len(evs)
				for _, ev := range evs {
					if ev.Kind == trace.Elect {
						res.elects++
					}
				}
			}
			res.retained = res.events
		}
		if o.full {
			res.lat = matchLatencies(out.Events)
		}
		return res, nil
	}, nil
}

// matchLatencies pairs every application send entering the collect
// layer (a Submit of kind data) with the Deliver of the same flow on the
// destination node, FIFO per (source, destination, tag) — exact while
// flows are ordered, which every send of the composite is.
func matchLatencies(timeline [][]trace.Event) []sim.Time {
	type flow struct {
		src, dst int
		tag      uint64
	}
	submits := map[flow][]sim.Time{}
	for node, evs := range timeline {
		for _, ev := range evs {
			if ev.Kind == trace.Submit && ev.Note == "data" {
				k := flow{node, ev.Peer, ev.Tag}
				submits[k] = append(submits[k], ev.At)
			}
		}
	}
	var lat []sim.Time
	next := map[flow]int{}
	for node, evs := range timeline {
		for _, ev := range evs {
			if ev.Kind != trace.Deliver {
				continue
			}
			k := flow{ev.Peer, node, ev.Tag}
			if i := next[k]; i < len(submits[k]) {
				lat = append(lat, ev.At-submits[k][i])
				next[k] = i + 1
			}
		}
	}
	return lat
}

// The corpus is a frozen copy of the repository's scenarios/ directory
// (see README.md for how to refresh it), embedded so the benchmark runs
// from any directory.
//
//go:embed testdata/scenarios/*.yaml
var corpusFS embed.FS

type corpusFile struct {
	name string
	src  []byte
}

func loadCorpus() ([]corpusFile, error) {
	const dir = "testdata/scenarios"
	entries, err := corpusFS.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []corpusFile
	for _, ent := range entries {
		src, err := corpusFS.ReadFile(dir + "/" + ent.Name())
		if err != nil {
			return nil, err
		}
		files = append(files, corpusFile{ent.Name(), src})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	return files, nil
}

// scenario-corpus — every scenario of the frozen corpus parsed,
// validated and run 8 times per repetition, in an order drawn from the
// seed (runs are independent worlds, so only host-side state such as
// cache and heap layout sees the order). An op is one scenario run; its
// latency is the scenario's virtual completion time, and the
// repetition's completion is their sum. Failures are failed assertions,
// incomplete phases and process errors.
func prepareCorpus(seed uint64, scale float64) (runner, error) {
	files, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	runs := scaled(corpusRunsPerRp, scale)
	order := make([]int, 0, runs*len(files))
	for r := 0; r < runs; r++ {
		for i := range files {
			order = append(order, i)
		}
	}
	rng := sim.NewRNG(seed)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	lat := make([]sim.Time, len(order))
	return func(o repOpts) (repResult, error) {
		res := repResult{ops: len(order), lat: lat}
		parseSpan, validateSpan := o.spans.calls("scenario.Parse"), o.spans.calls("scenario.Validate")
		runSpan := o.spans.calls("scenario.Run")
		for i, idx := range order {
			file := files[idx]
			t := parseSpan.enter()
			sc, err := scenario.Parse(file.src)
			parseSpan.leave(t)
			if err != nil {
				return res, fmt.Errorf("%s: %w", file.name, err)
			}
			t = validateSpan.enter()
			errs := scenario.Validate(sc)
			validateSpan.leave(t)
			if len(errs) > 0 {
				return res, fmt.Errorf("%s: %w", file.name, errors.Join(errs...))
			}
			t = runSpan.enter()
			rep, err := scenario.Run(sc, scenario.Config{})
			runSpan.leave(t)
			if err != nil && !errors.Is(err, scenario.ErrAssertFailed) {
				return res, fmt.Errorf("%s: %w", file.name, err)
			}
			if err != nil {
				res.failed++
			}
			lat[i] = rep.Completion
			res.completion += rep.Completion
			res.asserts += len(rep.Results)
			for _, s := range rep.Stats {
				sumStats(&res.stats, s)
			}
			for _, f := range rep.Faults {
				res.dropped += f.Dropped
			}
		}
		// Scenarios verify their own payloads (the integrity assertion);
		// the bytes counted are what the engines report having sent.
		res.payload = res.stats.EagerBytes + res.stats.BodyBytes
		return res, nil
	}, nil
}
