package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"nmad/internal/core"
	"nmad/internal/drivers"
	"nmad/internal/madmpi"
	"nmad/internal/queue"
	"nmad/internal/replay"
	"nmad/internal/scenario"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
	"nmad/sched"
)

// The traced run. Per-layer metrics come from three places, all outside
// the program: counters it already exposes, read after one repetition
// with a 1-slot ring recorder on every engine the driver builds; virtual
// stage times reconstructed from an unbounded recorder on the two eager
// two-node workloads; and micro-drives that time each layer's exported
// functions in isolation. Names are <module>.<metric>. A metric a
// workload cannot supply (it hides its NICs, or has no eager two-node
// timeline) reads 0 there.

// stageWorkloads are the workloads whose timeline the stage-time
// reconstruction understands: two nodes, eager entries only.
var stageWorkloads = map[string]bool{"pingpong-64B": true, "multiflow-16x256B": true}

func tracedRun(wl workload, cfg runConfig, b *bench, run runner, warm repResult, log *spanLog, out *outcome) error {
	var plain, traced []timedRep
	var last repResult
	for i := 0; i < tracedReps; i++ {
		log.begin("rep:untraced")
		tr, res := b.rep(run, repOpts{})
		log.end()
		if !sameVirtual(res, warm) {
			b.failed++
		}
		plain = append(plain, tr)

		log.begin("rep:traced")
		tr, last = b.rep(run, repOpts{tracer: ringTracer, spans: log})
		log.end()
		if !sameVirtual(last, warm) {
			b.failed++
		}
		traced = append(traced, tr)
	}

	var st stages
	if stageWorkloads[wl.name] {
		log.begin("rep:stage-times")
		// A tenth of the repetition is plenty: stage times are
		// per-message distributions, and every event is retained.
		short, err := wl.prepare(cfg.seed, cfg.scale/10)
		if err == nil {
			var res repResult
			res, err = short(repOpts{tracer: fullTracer})
			b.account(res, err)
			st = stageTimes(res.timeline)
		}
		log.end()
		if err != nil {
			return fmt.Errorf("%s: stage-time repetition: %w", wl.name, err)
		}
	}

	log.begin("micro-drives")
	err := microDrives(out, log, cfg.scale)
	log.end()

	ops := float64(max(last.ops, 1))
	s := last.stats
	share := func(n, of int) float64 { return float64(n) / float64(max(of, 1)) }
	out.add("simnet.tx_packets_per_op", float64(last.nic.TxPackets)/ops, "1/op")
	out.add("simnet.tx_bytes_per_op", float64(last.nic.TxBytes)/ops, "B/op")
	out.add("simnet.max_nic_queue", float64(last.nic.MaxQueue), "count")
	out.add("simnet.fault_dropped", float64(last.dropped), "count")
	out.add("simnet.virt_wire_us_p50", quantile(sortedMicros(st.wire), 0.5), "us_virt")
	out.add("core.events_per_op", float64(last.events)/ops, "1/op")
	out.add("core.elects_per_op", float64(last.elects)/ops, "1/op")
	out.add("core.packets_per_op", float64(s.OutputPackets)/ops, "1/op")
	out.add("core.aggregation_ratio", s.AggregationRatio(), "ratio")
	out.add("core.ctrl_piggybacked", float64(s.CtrlPiggybacked), "count")
	out.add("core.rdv_started", float64(s.RdvStarted), "count")
	out.add("core.unexpected_share", share(s.Unexpected, s.EntriesSent), "ratio")
	out.add("core.reordered", float64(s.Reordered), "count")
	out.add("core.peak_unexpected", float64(s.PeakUnexpected), "count")
	out.add("core.peak_held", float64(s.PeakHeld), "count")
	out.add("core.credits_sent", float64(s.CreditsSent), "count")
	out.add("core.retransmits", float64(s.Retransmits), "count")
	out.add("core.dup_acks", float64(s.DupAcks), "count")
	out.add("core.body_reissues", float64(s.BodyReissues), "count")
	out.add("core.protocol_errors", float64(s.ProtocolErrors), "count")
	wait := sortedMicros(st.windowWait)
	out.add("core.virt_window_wait_us_p50", quantile(wait, 0.5), "us_virt")
	out.add("core.virt_window_wait_us_p99", quantile(wait, 0.99), "us_virt")
	out.add("core.virt_rx_match_us_p50", quantile(sortedMicros(st.rxMatch), 0.5), "us_virt")
	out.add("trace.events_per_op", float64(last.retained)/ops, "1/op")

	plainRel, tracedRel := hostCostRel(plain, b.calibs), hostCostRel(traced, b.calibs)
	out.add("harness.wall_ops_per_s", ops/fastest(plain).Seconds(), "1/s")
	out.add("harness.calib_ms", 1e3*slices.Min(b.calibs).Seconds(), "ms")
	out.add("harness.trace_overhead_rel", tracedRel/plainRel, "ratio")
	out.add("harness.gc_cycles_per_rep", median(column(plain, func(r timedRep) float64 { return float64(r.gcCycles) })), "count")
	out.add("harness.heap_peak_mb", float64(traced[len(traced)-1].heapPeak)/(1<<20), "MB")
	out.notes = append(out.notes,
		fmt.Sprintf("host_cost_rel untraced %.4f, traced %.4f (n=%d each); GOMAXPROCS=1 while measuring", plainRel, tracedRel, tracedReps),
		fmt.Sprintf("stage times: %d window waits, %d wire crossings, %d matches", len(st.windowWait), len(st.wire), len(st.rxMatch)))

	// Report module by module, the way the layers stack.
	sort.SliceStable(out.metrics, func(i, j int) bool {
		return moduleRank(out.metrics[i].name) < moduleRank(out.metrics[j].name)
	})

	log.end() // run:<workload>
	if werr := log.write(cfg.spans); werr != nil {
		err = errors.Join(err, werr)
	} else {
		out.notes = append(out.notes, "span dump: "+cfg.spans)
	}
	return errors.Join(b.firstErr, err)
}

// modules lists the layers bottom-up; a per-layer metric is named
// <module>.<metric>.
var modules = []string{"sim", "simnet", "drivers", "sched", "core", "madmpi", "queue", "scenario", "trace", "replay", "harness"}

func moduleRank(metric string) int {
	module, _, _ := strings.Cut(metric, ".")
	return slices.Index(modules, module)
}

// stages are the virtual times wrappers spent between the engine's
// trace points.
type stages struct {
	windowWait []sim.Time // Submit → Depart: in the optimization window
	wire       []sim.Time // Depart → Arrive: NIC and wire
	rxMatch    []sim.Time // Arrive → Deliver: until matched to a receive
}

// stageTimes reconstructs per-wrapper stage times from per-node
// timelines. Events carry no message identity, so it matches first-in
// first-out: a Depart with n entries takes the n oldest Submits toward
// that peer, the k-th Depart toward a node is its k-th Arrive from the
// sender, and a packet's n entries are the next n Delivers from that
// sender. That is exact only while every entry is an in-order eager data
// wrapper; a timeline whose counts do not add up yields nothing.
func stageTimes(timeline [][]trace.Event) stages {
	type packet struct {
		at      sim.Time
		entries int
	}
	type pair struct{ src, dst int }
	var st stages
	departed := map[pair][]packet{}
	for src, evs := range timeline {
		queued := map[int][]sim.Time{} // per peer: submit instants awaiting departure
		for _, ev := range evs {
			switch ev.Kind {
			case trace.Submit:
				queued[ev.Peer] = append(queued[ev.Peer], ev.At)
			case trace.Depart:
				q := queued[ev.Peer]
				if ev.Entries > len(q) {
					return stages{}
				}
				for _, at := range q[:ev.Entries] {
					st.windowWait = append(st.windowWait, ev.At-at)
				}
				queued[ev.Peer] = q[ev.Entries:]
				k := pair{src, ev.Peer}
				departed[k] = append(departed[k], packet{ev.At, ev.Entries})
			}
		}
	}
	for dst, evs := range timeline {
		arrived := map[int][]packet{} // per sender: packets with entries still unmatched
		seen := map[int]int{}         // per sender: arrivals so far
		for _, ev := range evs {
			switch ev.Kind {
			case trace.Arrive:
				sent := departed[pair{ev.Peer, dst}]
				k := seen[ev.Peer]
				if k >= len(sent) {
					return stages{}
				}
				seen[ev.Peer] = k + 1
				st.wire = append(st.wire, ev.At-sent[k].at)
				arrived[ev.Peer] = append(arrived[ev.Peer], packet{ev.At, sent[k].entries})
			case trace.Deliver:
				q := arrived[ev.Peer]
				if len(q) == 0 {
					return stages{}
				}
				st.rxMatch = append(st.rxMatch, ev.At-q[0].at)
				if q[0].entries--; q[0].entries == 0 {
					arrived[ev.Peer] = q[1:]
				}
			}
		}
	}
	return st
}

// drive is one timed micro-benchmark of a layer's exported API: it
// performs ops operations and reports how long its timed part took.
type drive func() (ops int, elapsed time.Duration, err error)

// microTries is how many times each micro-drive runs; the median is
// reported.
const microTries = 3

// perOp runs a drive microTries times under a span and returns the
// median time per operation in the given unit.
func perOp(log *spanLog, name string, unit time.Duration, d drive) (float64, error) {
	var v []float64
	for i := 0; i < microTries; i++ {
		log.begin(name)
		ops, elapsed, err := d()
		log.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		v = append(v, float64(elapsed)/float64(unit)/float64(ops))
	}
	return median(v), nil
}

// allocsOf runs a drive once and reports mallocs and bytes allocated per
// operation over the whole drive.
func allocsOf(d drive) (mallocs, allocBytes float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ops, _, err := d()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops), err
}

func microDrives(out *outcome, log *spanLog, scale float64) error {
	var errs []error
	// k scales an operation count the way a workload's repetition scales.
	k := func(n int) int { return scaled(n, scale) }
	ns := func(name string, d drive) {
		v, err := perOp(log, name, time.Nanosecond, d)
		errs = append(errs, err)
		out.add(name, v, "ns")
	}
	in := func(name string, unit time.Duration, unitName string, d drive) {
		v, err := perOp(log, name, unit, d)
		errs = append(errs, err)
		out.add(name, v, unitName)
	}
	mallocs := func(name string, d drive) {
		v, _, err := allocsOf(d)
		errs = append(errs, err)
		out.add(name, v, "1/op")
	}
	allocBytes := func(name string, d drive) {
		_, v, err := allocsOf(d)
		errs = append(errs, err)
		out.add(name, v, "B/op")
	}

	ns("sim.event_ns_shallow", simEvents(k(200_000), 0))
	ns("sim.event_ns_deep", simEvents(k(200_000), k(1_000_000)))
	ns("sim.switch_ns", simSwitches(k(100_000)))
	ns("sim.spawn_ns", simSpawns(k(20_000)))
	mallocs("sim.allocs_per_spawn", simSpawns(k(20_000)))
	ns("sim.cond_wake_ns", simCondWakes(k(50_000)))

	ns("simnet.tx_ns_64B", nicTx(64, k(20_000)))
	ns("simnet.tx_ns_64KB", nicTx(64<<10, k(1_000)))
	allocBytes("simnet.alloc_bytes_per_tx_64KB", nicTx(64<<10, k(1_000)))
	ns("drivers.send_ns_64B", driverSend(64, k(20_000)))

	for _, name := range []string{"default", "aggreg", "split", "prio", "adaptive"} {
		ns("sched.elect_ns."+name+".w1", elect(name, 1, k(100_000)))
		ns("sched.elect_ns."+name+".w64", elect(name, 64, k(20_000)))
	}
	mallocs("sched.allocs_per_elect.aggreg.w64", elect("aggreg", 64, k(20_000)))

	in("core.new_engine_us", time.Microsecond, "us", newEngines(k(2_000)))
	isend, irecv := coreSubmits(k(2_000))
	ns("core.isend_ns", isend)
	ns("core.irecv_ns", irecv)

	in("madmpi.init_us", time.Microsecond, "us", mpiInits(k(2_000)))
	ns("madmpi.isend_ns", mpiIsends(k(2_000)))
	var allreduceVirt, barrierVirt sim.Time
	in("madmpi.allreduce_host_ms_16x256KB", time.Millisecond, "ms", allreduce(16, 256<<10, &allreduceVirt))
	out.add("madmpi.allreduce_virt_us_16x256KB", allreduceVirt.Microseconds(), "us_virt")
	_, _, err := barrier(64, &barrierVirt)()
	errs = append(errs, err)
	out.add("madmpi.barrier_virt_us_64", barrierVirt.Microseconds(), "us_virt")

	ns("queue.job_ns", queueJobs(k(10_000)))
	mallocs("queue.allocs_per_job", queueJobs(k(10_000)))

	errs = append(errs, corpusPass(out, log))

	ns("trace.record_ns", traceRecords(k(200_000)))
	ns("trace.record_first_ns", traceFirstRecords(k(2_000)))
	allocBytes("trace.alloc_bytes_first_event", traceFirstRecords(k(2_000)))
	errs = append(errs, recordingPass(out, log))

	return errors.Join(errs...)
}

// simEvents fires a chain of n events, each scheduling the next, with
// depth other events sitting in the queue the whole time.
func simEvents(n, depth int) drive {
	return func() (int, time.Duration, error) {
		w := sim.NewWorld()
		for i := 0; i < depth; i++ {
			w.At(sim.Second+sim.Time(i), func() {})
		}
		left := n
		var next func()
		next = func() {
			if left--; left == 0 {
				w.Stop()
				return
			}
			w.After(1, next)
		}
		w.After(1, next)
		t0 := time.Now()
		err := w.Run()
		return n, time.Since(t0), err
	}
}

// simSwitches hands control scheduler → process → scheduler n times
// through Sleep(0).
func simSwitches(n int) drive {
	return func() (int, time.Duration, error) {
		w := sim.NewWorld()
		w.Spawn("yield", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(0)
			}
		})
		t0 := time.Now()
		err := w.Run()
		return n, time.Since(t0), err
	}
}

// simSpawns spawns n processes that return at once and runs them out.
func simSpawns(n int) drive {
	return func() (int, time.Duration, error) {
		w := sim.NewWorld()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			w.Spawn("spawned", func(*sim.Proc) {})
		}
		err := w.Run()
		return n, time.Since(t0), err
	}
}

// simCondWakes has one process wake another through a Cond n times; each
// wake is a Signal, the woken process's turn and the waker's Sleep(0).
func simCondWakes(n int) drive {
	return func() (int, time.Duration, error) {
		w := sim.NewWorld()
		c := sim.NewCond(w)
		w.Spawn("waiter", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.Wait(p)
			}
		})
		w.Spawn("waker", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.Signal()
				p.Sleep(0)
			}
		})
		t0 := time.Now()
		err := w.Run()
		return n, time.Since(t0), err
	}
}

// twoNodeMX is the smallest fabric: two hosts on one MX rail.
func twoNodeMX() (*sim.World, *simnet.Fabric, *simnet.Network, error) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	net, err := f.AddNetwork(simnet.MX10G())
	return w, f, net, err
}

// nicTx pushes n transactions of size bytes from NIC.Submit to the
// peer's OnRecv.
func nicTx(size, n int) drive {
	return func() (int, time.Duration, error) {
		w, _, net, err := twoNodeMX()
		if err != nil {
			return n, 0, err
		}
		got := 0
		net.NIC(1).OnRecv(func(simnet.Delivery) { got++ })
		segs := [][]byte{make([]byte, size)}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := net.NIC(0).Submit(&simnet.Tx{Dst: 1, Kind: simnet.TxEager, Segs: segs}); err != nil {
				return n, 0, err
			}
		}
		err = w.Run()
		elapsed := time.Since(t0)
		if err == nil && got != n {
			err = fmt.Errorf("%d of %d transactions delivered", got, n)
		}
		return n, elapsed, err
	}
}

// driverSend is nicTx one layer up: through Driver.Send of the MX port.
func driverSend(size, n int) drive {
	return func() (int, time.Duration, error) {
		w, _, net, err := twoNodeMX()
		if err != nil {
			return n, 0, err
		}
		got := 0
		tx, rx := drivers.NewMX(net, 0), drivers.NewMX(net, 1)
		err = errors.Join(
			tx.Open(func(simnet.Delivery) {}, func() {}),
			rx.Open(func(simnet.Delivery) { got++ }, func() {}))
		if err != nil {
			return n, 0, err
		}
		segs := [][]byte{make([]byte, size)}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := tx.Send(1, simnet.TxEager, segs, 0, nil); err != nil {
				return n, 0, err
			}
		}
		err = w.Run()
		elapsed := time.Since(t0)
		if err == nil && got != n {
			err = fmt.Errorf("%d of %d transactions delivered", got, n)
		}
		return n, elapsed, err
	}
}

// syntheticWindow is a sched.Window over fixed wrappers: 256-byte data
// wrappers spread over 16 flows, as the multiflow workload submits them.
type syntheticWindow []sched.Wrapper

func newSyntheticWindow(n int) syntheticWindow {
	const payload, header = 256, 24
	win := make(syntheticWindow, n)
	for i := range win {
		win[i] = sched.Wrapper{
			Dest: 1, Tag: uint64(i % 16), Seq: uint32(i / 16),
			Len: payload, WireSize: header + payload, Segments: 2, Ref: i,
		}
	}
	return win
}

func (w syntheticWindow) Peer() int    { return 1 }
func (w syntheticWindow) Pending() int { return len(w) }
func (w syntheticWindow) Credits() int { return -1 }
func (w syntheticWindow) Scan(visit func(sched.Wrapper) bool) {
	for _, pw := range w {
		if !visit(pw) {
			return
		}
	}
}

// elect asks a built-in strategy n times for a packet out of a window
// of the given size on an idle MX rail.
func elect(strategy string, window, n int) drive {
	return func() (int, time.Duration, error) {
		_, _, net, err := twoNodeMX()
		if err != nil {
			return n, 0, err
		}
		strat, err := sched.New(strategy)
		if err != nil {
			return n, 0, err
		}
		rail := sched.RailInfo{Name: "mx", Caps: drivers.NewMX(net, 0).Caps()}
		if a, ok := strat.(sched.Attacher); ok {
			a.OnAttach(rail)
		}
		win := newSyntheticWindow(window)
		picked := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			picked += strat.Elect(win, rail).Len()
		}
		elapsed := time.Since(t0)
		if picked < n {
			err = fmt.Errorf("strategy %s elected %d wrappers in %d elections", strategy, picked, n)
		}
		return n, elapsed, err
	}
}

// newEngines builds n engines on a two-rail fabric.
func newEngines(n int) drive {
	return func() (int, time.Duration, error) {
		w := sim.NewWorld()
		f := simnet.NewFabric(w, 2, simnet.DefaultHost())
		for _, prof := range []simnet.Profile{simnet.MX10G(), simnet.QsNetII()} {
			if _, err := f.AddNetwork(prof); err != nil {
				return n, 0, err
			}
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e, err := core.New(f, 0, core.DefaultOptions())
			if err == nil {
				err = e.AttachFabric(f)
			}
			if err != nil {
				return n, 0, err
			}
		}
		return n, time.Since(t0), nil
	}
}

// coreSubmits posts n receives and then n 64-byte sends from outside any
// process (no submit overhead is slept, so the calls return without the
// world moving) and drains the world afterwards. All but the first send
// find the rail claimed, so isend is the cost of entering the window.
func coreSubmits(n int) (isend, irecv drive) {
	both := func() (sendTime, recvTime time.Duration, err error) {
		c, err := buildCluster(repOpts{}, 2, mx, core.DefaultOptions(), nil, false)
		if err != nil {
			return 0, 0, err
		}
		const tag = core.Tag(3)
		out, in := make([]byte, 64), make([]byte, 64)
		tx, rx := c.engines[0].Gate(1), c.engines[1].Gate(0)
		recvs := make([]*core.RecvRequest, n)
		t0 := time.Now()
		for i := range recvs {
			recvs[i] = rx.Irecv(nil, tag, in)
		}
		recvTime = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			tx.Isend(nil, tag, out)
		}
		sendTime = time.Since(t0)
		if err := c.w.Run(); err != nil {
			return 0, 0, err
		}
		for _, r := range recvs {
			if !r.Done() || r.Err() != nil {
				return 0, 0, errors.New("a receive did not complete")
			}
		}
		return sendTime, recvTime, nil
	}
	isend = func() (int, time.Duration, error) { s, _, err := both(); return n, s, err }
	irecv = func() (int, time.Duration, error) { _, r, err := both(); return n, r, err }
	return isend, irecv
}

// mpiInits initialises n MAD-MPI ranks on one 16-node fabric.
func mpiInits(n int) drive {
	return func() (int, time.Duration, error) {
		w := sim.NewWorld()
		f := simnet.NewFabric(w, 16, simnet.DefaultHost())
		if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
			return n, 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := madmpi.Init(f, simnet.NodeID(i%16), core.DefaultOptions()); err != nil {
				return n, 0, err
			}
		}
		return n, time.Since(t0), nil
	}
}

// mpiIsends is coreSubmits' send half through Comm.Isend.
func mpiIsends(n int) drive {
	return func() (int, time.Duration, error) {
		c, err := buildCluster(repOpts{}, 2, mx, core.DefaultOptions(), nil, true)
		if err != nil {
			return n, 0, err
		}
		out, in := make([]byte, 64), make([]byte, 64)
		tx, rx := c.mpis[0].CommWorld(), c.mpis[1].CommWorld()
		reqs := make([]*madmpi.Request, 0, 2*n)
		for i := 0; i < n; i++ {
			reqs = append(reqs, rx.Irecv(nil, in, 0, 0))
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			reqs = append(reqs, tx.Isend(nil, out, 1, 0))
		}
		elapsed := time.Since(t0)
		if err := c.w.Run(); err != nil {
			return n, 0, err
		}
		for _, r := range reqs {
			if !r.Done() || r.Err() != nil {
				return n, 0, errors.New("a request did not complete")
			}
		}
		return n, elapsed, nil
	}
}

// collective runs body once on every rank of a fresh MX job and reports
// the host time of the run and, through virt, its virtual completion.
func collective(ranks int, virt *sim.Time, body func(p *sim.Proc, comm *madmpi.Comm) error) drive {
	return func() (int, time.Duration, error) {
		c, err := buildCluster(repOpts{}, ranks, mx, core.DefaultOptions(), nil, true)
		if err != nil {
			return 1, 0, err
		}
		var pf procFailure
		for _, m := range c.mpis {
			c.w.Spawn(fmt.Sprintf("rank%d", m.Rank()), func(p *sim.Proc) {
				if err := body(p, m.CommWorld()); err != nil {
					pf.note("collective", err)
				}
				*virt = max(*virt, p.Now())
			})
		}
		*virt = 0
		t0 := time.Now()
		err = c.w.Run()
		return 1, time.Since(t0), errors.Join(err, pf.first)
	}
}

func allreduce(ranks, vectorBytes int, virt *sim.Time) drive {
	n := vectorBytes / 8
	return collective(ranks, virt, func(p *sim.Proc, comm *madmpi.Comm) error {
		send, recv := make([]float64, n), make([]float64, n)
		for i := range send {
			send[i] = float64(comm.Rank() + i)
		}
		if err := comm.Allreduce(p, send, recv, madmpi.OpSum); err != nil {
			return err
		}
		for _, i := range []int{0, n - 1} {
			if want := float64(ranks*(ranks-1)/2 + ranks*i); recv[i] != want {
				return fmt.Errorf("allreduce element %d = %v, want %v", i, recv[i], want)
			}
		}
		return nil
	})
}

func barrier(ranks int, virt *sim.Time) drive {
	return collective(ranks, virt, func(p *sim.Proc, comm *madmpi.Comm) error { return comm.Barrier(p) })
}

// queueJobs pushes n no-op jobs from three tenants through a job queue.
func queueJobs(n int) drive {
	return func() (int, time.Duration, error) {
		c, err := buildCluster(repOpts{}, 2, mx, core.DefaultOptions(), nil, false)
		if err != nil {
			return n, 0, err
		}
		tenants := []queue.TenantSpec{
			{Name: "bulk", Weight: 1, Class: queue.ClassBulk},
			{Name: "normal", Weight: 2, Class: queue.ClassNormal},
			{Name: "latency", Weight: 4, Class: queue.ClassLatency},
		}
		q, err := queue.New(c.engines[0], queue.Config{Capacity: n, Tenants: tenants})
		if err != nil {
			return n, 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := q.Submit(tenants[i%3].Name, "job", func(*sim.Proc) error { return nil }); err != nil {
				return n, 0, err
			}
		}
		err = c.w.Run()
		elapsed := time.Since(t0)
		if done := c.engines[0].Stats().JobsCompleted; err == nil && done != n {
			err = fmt.Errorf("%d of %d jobs completed", done, n)
		}
		return n, elapsed, err
	}
}

// corpusPass parses, validates and runs each file of the frozen corpus
// once, timing the three steps apart, and reads the job-queue counters
// of the one scenario that has tenants.
func corpusPass(out *outcome, log *spanLog) error {
	files, err := loadCorpus()
	if err != nil {
		return err
	}
	var parse, validate, run time.Duration
	var queued core.Stats
	asserts := 0
	log.begin("scenario.corpus-pass")
	defer log.end()
	for _, file := range files {
		t0 := time.Now()
		sc, err := scenario.Parse(file.src)
		parse += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", file.name, err)
		}
		t0 = time.Now()
		errs := scenario.Validate(sc)
		validate += time.Since(t0)
		if len(errs) > 0 {
			return fmt.Errorf("%s: %w", file.name, errors.Join(errs...))
		}
		t0 = time.Now()
		rep, err := scenario.Run(sc, scenario.Config{})
		run += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", file.name, err)
		}
		asserts += len(rep.Results)
		if len(sc.Tenants) > 0 {
			for _, s := range rep.Stats {
				sumStats(&queued, s)
			}
		}
	}
	n := float64(len(files))
	out.add("queue.jobs_dispatched", float64(queued.JobsDispatched), "count")
	out.add("queue.peak_job_wait_us", queued.PeakJobWait.Microseconds(), "us_virt")
	out.add("scenario.parse_us_per_file", float64(parse)/float64(time.Microsecond)/n, "us")
	out.add("scenario.validate_us_per_file", float64(validate)/float64(time.Microsecond)/n, "us")
	out.add("scenario.run_ms_per_file", float64(run)/float64(time.Millisecond)/n, "ms")
	out.add("scenario.assertions_checked", float64(asserts), "count")
	return nil
}

// traceRecords appends n events to one unbounded recorder.
func traceRecords(n int) drive {
	return func() (int, time.Duration, error) {
		r := trace.NewRecorder()
		ev := trace.Event{Kind: trace.Submit, Peer: 1, Tag: 7, Bytes: 64, Rail: -1}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ev.At = sim.Time(i)
			r.Record(ev)
		}
		elapsed := time.Since(t0)
		if r.Total() != n {
			return n, 0, errors.New("recorder lost events")
		}
		return n, elapsed, nil
	}
}

// traceFirstRecords records the first event of n fresh unbounded
// recorders — what replay pays once per node.
func traceFirstRecords(n int) drive {
	return func() (int, time.Duration, error) {
		ev := trace.Event{Kind: trace.Submit, Peer: 1, Tag: 7, Bytes: 64, Rail: -1}
		total := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r := trace.NewRecorder()
			r.Record(ev)
			total += r.Total()
		}
		elapsed := time.Since(t0)
		if total != n {
			return n, 0, errors.New("recorder lost events")
		}
		return n, elapsed, nil
	}
}

// recordingPass records the composite ring at a quarter of the replay
// workload's size, serialises it, parses it back and replays it once.
func recordingPass(out *outcome, log *spanLog) error {
	const nodes = ringNodes / 4
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	log.begin("replay.RecordCompositeRing")
	t0 := time.Now()
	rec, err := recordRing(nodes)
	recordTime := time.Since(t0)
	log.end()
	if err != nil {
		return err
	}

	var buf bytes.Buffer
	log.begin("trace.Recording.Write")
	t0 = time.Now()
	err = rec.Write(&buf)
	writeTime := time.Since(t0)
	log.end()
	if err != nil {
		return err
	}
	log.begin("trace.ReadRecording")
	t0 = time.Now()
	back, err := trace.ReadRecording(&buf)
	readTime := time.Since(t0)
	log.end()
	if err != nil {
		return err
	}
	if back.Len() != rec.Len() {
		return fmt.Errorf("recording round trip kept %d of %d ops", back.Len(), rec.Len())
	}

	var runTime time.Duration
	_, replayBytes, err := allocsOf(func() (int, time.Duration, error) {
		log.begin("replay.Run")
		t0 := time.Now()
		res, err := replay.Run(back, replay.Config{})
		runTime = time.Since(t0)
		log.end()
		if err == nil && res.RequestErrors != 0 {
			err = fmt.Errorf("replay of the %d-node ring: %d request errors", nodes, res.RequestErrors)
		}
		return back.Len(), runTime, err
	})
	if err != nil {
		return err
	}
	out.add("trace.write_recording_ms", ms(writeTime), "ms")
	out.add("trace.read_recording_ms", ms(readTime), "ms")
	out.add("replay.record_ring_ms", ms(recordTime), "ms")
	out.add("replay.run_ms", ms(runTime), "ms")
	out.add("replay.alloc_bytes_per_op", replayBytes, "B/op")
	return nil
}
