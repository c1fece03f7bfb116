package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// tracerMode selects the trace.Recorder a repetition attaches to every
// engine the driver builds.
type tracerMode int

const (
	noTracer   tracerMode = iota // end-to-end runs: tracing off
	ringTracer                   // traced runs: a 1-slot ring, counts only
	fullTracer                   // stage-time runs: every event retained
)

// repOpts selects how one repetition runs.
type repOpts struct {
	// full verifies every payload byte (the warm-up repetition); timed
	// repetitions only spot-check the first and last 8 bytes.
	full   bool
	tracer tracerMode
	spans  *spanLog
}

// repResult is what one repetition did and measured in virtual time.
type repResult struct {
	ops     int   // application-level operations attempted
	failed  int   // request errors + payload mismatches + failed checks
	payload int64 // verified payload bytes
	// completion is the virtual instant the last operation completed;
	// lat holds the per-operation virtual latencies (the backing array
	// is the runner's and is overwritten by the next repetition).
	completion sim.Time
	lat        []sim.Time

	stats    core.Stats      // summed over engines (peaks: maximum)
	nic      simnet.NICStats // summed over NICs (MaxQueue: maximum); zero when the workload hides its NICs
	dropped  int             // packets the fault injector dropped
	events   int             // trace events recorded
	elects   int             // trace events of kind Elect
	retained int             // trace events still held by the recorders at the end
	timeline [][]trace.Event // per-node events (fullTracer and replay only)
	asserts  int             // scenario assertions evaluated
}

// sumStats folds one engine's counters into the repetition total.
func sumStats(dst *core.Stats, s core.Stats) {
	dst.Submitted += s.Submitted
	dst.OutputPackets += s.OutputPackets
	dst.EntriesSent += s.EntriesSent
	dst.CtrlPiggybacked += s.CtrlPiggybacked
	dst.RdvStarted += s.RdvStarted
	dst.EagerBytes += s.EagerBytes
	dst.BodyBytes += s.BodyBytes
	dst.WireBytes += s.WireBytes
	dst.Reordered += s.Reordered
	dst.Unexpected += s.Unexpected
	dst.CreditsSent += s.CreditsSent
	dst.Retransmits += s.Retransmits
	dst.DupAcks += s.DupAcks
	dst.BodyReissues += s.BodyReissues
	dst.JobsDispatched += s.JobsDispatched
	dst.ProtocolErrors += s.ProtocolErrors
	dst.PeakUnexpected = max(dst.PeakUnexpected, s.PeakUnexpected)
	dst.PeakHeld = max(dst.PeakHeld, s.PeakHeld)
	dst.PeakJobWait = max(dst.PeakJobWait, s.PeakJobWait)
}

// checkDrained counts the conservation checks one drained engine fails:
// no protocol anomaly, and every wrapper that entered the collect layer
// left in an output packet.
func checkDrained(s core.Stats) int {
	failed := 0
	if s.ProtocolErrors != 0 {
		failed++
	}
	if s.Submitted != s.EntriesSent {
		failed++
	}
	return failed
}

// cluster is one freshly built simulated machine.
type cluster struct {
	w       *sim.World
	f       *simnet.Fabric
	engines []*core.Engine
	mpis    []*madmpi.MPI // set when built with mpi = true
	tracers []*trace.Recorder
	spans   *spanLog
	keep    bool // fullTracer: hand the events to the result
}

// buildCluster assembles nodes hosts on the given rails, one engine (or
// MAD-MPI rank) per host.
func buildCluster(o repOpts, nodes int, rails []simnet.Profile, opts core.Options, faults *simnet.FaultProfile, mpi bool) (*cluster, error) {
	o.spans.begin("cluster.build")
	defer o.spans.end()
	c := &cluster{w: sim.NewWorld(), spans: o.spans, keep: o.tracer == fullTracer}
	c.f = simnet.NewFabric(c.w, nodes, simnet.DefaultHost())
	for _, prof := range rails {
		if _, err := c.f.AddNetwork(prof); err != nil {
			return nil, err
		}
	}
	if faults != nil {
		if err := c.f.SetFaults(*faults); err != nil {
			return nil, err
		}
	}
	for node := 0; node < nodes; node++ {
		switch o.tracer {
		case ringTracer:
			opts.Tracer = trace.NewRingRecorder(1)
		case fullTracer:
			opts.Tracer = trace.NewRecorder()
		}
		if opts.Tracer != nil {
			c.tracers = append(c.tracers, opts.Tracer)
		}
		if mpi {
			o.spans.begin("madmpi.Init")
			m, err := madmpi.Init(c.f, simnet.NodeID(node), opts)
			o.spans.end()
			if err != nil {
				return nil, err
			}
			c.mpis = append(c.mpis, m)
			c.engines = append(c.engines, m.Engine())
			continue
		}
		o.spans.begin("core.New+AttachFabric")
		e, err := core.New(c.f, simnet.NodeID(node), opts)
		if err == nil {
			err = e.AttachFabric(c.f)
		}
		o.spans.end()
		if err != nil {
			return nil, err
		}
		c.engines = append(c.engines, e)
	}
	return c, nil
}

// run drives the world to quiescence and folds every counter the
// machine exposes into res.
func (c *cluster) run(res *repResult) error {
	c.spans.begin("sim.World.Run")
	err := c.w.Run()
	c.spans.end()
	if err != nil {
		return err
	}
	for _, e := range c.engines {
		s := e.Stats()
		sumStats(&res.stats, s)
		res.failed += checkDrained(s)
	}
	for _, net := range c.f.Networks() {
		res.dropped += net.FaultStats().Dropped
		for node := 0; node < c.f.Nodes(); node++ {
			n := net.NIC(simnet.NodeID(node)).Stats()
			res.nic.TxPackets += n.TxPackets
			res.nic.TxBytes += n.TxBytes
			res.nic.MaxQueue = max(res.nic.MaxQueue, n.MaxQueue)
		}
	}
	for _, t := range c.tracers {
		res.events += t.Total()
		res.elects += t.Count(trace.Elect)
		evs := t.Events()
		res.retained += len(evs)
		if c.keep {
			res.timeline = append(res.timeline, evs)
		}
	}
	return nil
}

// Payloads carry a seeded pattern with the message index stamped into
// the first and last 8 bytes, so a stale, swapped or truncated delivery
// fails even the spot check.

func seededBytes(seed uint64, n int) []byte {
	b := make([]byte, n)
	sim.NewRNG(seed).Bytes(b)
	return b
}

func stamp(buf []byte, idx uint64) {
	binary.LittleEndian.PutUint64(buf, idx)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], ^idx)
}

// intact reports whether buf is message idx of the given pattern.
func intact(buf, pattern []byte, idx uint64, full bool) bool {
	n := len(pattern)
	if len(buf) != n ||
		binary.LittleEndian.Uint64(buf) != idx ||
		binary.LittleEndian.Uint64(buf[n-8:]) != ^idx {
		return false
	}
	return !full || bytes.Equal(buf[8:n-8], pattern[8:n-8])
}

// procFailure turns an error inside a simulated process into a counted
// failure of the repetition, remembering the first one for the report.
type procFailure struct {
	n     int
	first error
}

func (pf *procFailure) note(what string, err error) {
	pf.n++
	if pf.first == nil {
		pf.first = fmt.Errorf("%s: %w", what, err)
	}
}
