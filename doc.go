// Package nmad is a Go reproduction of NewMadeleine, the communication
// scheduling engine for high-performance networks of Aumage, Brunet,
// Furmento and Namyst (INRIA RR-6085, 2006 / IPPS 2007).
//
// # What it is
//
// NewMadeleine decouples communication-request processing from the
// application workflow and ties it to NIC activity instead: requests
// accumulate in an optimization window while the NICs are busy, and each
// time a NIC becomes idle a pluggable strategy synthesizes the next
// ready-to-send packet — aggregating small requests across logical flows
// (even across MPI communicators), reordering them, turning large ones
// into rendezvous transactions, and splitting bodies over multiple
// heterogeneous rails.
//
// Since real Myri-10G/Quadrics NICs cannot be driven from a Go
// user-level process, the hardware is substituted by a deterministic
// discrete-event network simulator with LogGP-style cost models
// calibrated against the paper's 2006 Opteron testbed. All latency and
// bandwidth figures are read off the virtual clock.
//
// # The API
//
// The package is a facade in three movements:
//
// Construction is functional options. A Cluster is the machine; engines
// and MPI ranks live on its nodes:
//
//	cl, _ := nmad.NewCluster(2, nmad.WithRails(nmad.MX10G(), nmad.QsNetII()))
//	e0, _ := cl.Engine(0, nmad.WithStrategy("aggreg"), nmad.WithTracer(tr))
//	m1, _ := cl.MPI(1)
//
// Completion is one Request interface. Sends, receives, packed messages
// and MAD-MPI handles all expose Done/Test/Err/Wait/Bytes, compose with
// NewRequestGroup, and finish through WaitAll/WaitAny:
//
//	s := e0.Gate(1).Isend(p, tag, data, nmad.Priority())
//	r := e0.Gate(1).Irecv(p, tag2, buf)
//	idx, _ := nmad.WaitAny(p, s, r)
//
// Non-contiguous data is first-class. Isendv/Irecvv move an iovec — a
// gather/scatter list of segments anywhere in user space — as ONE
// wrapper, NIC-gathered on send and scattered on delivery; MAD-MPI
// derived datatypes ride this path, so an indexed layout is one wire
// entry the strategies aggregate natively (the paper's §5.3 result):
//
//	e0.Gate(1).Isendv(p, tag, [][]byte{hdr, col0, col1})
//
// The optimizer is programmable. Package nmad/sched is the public
// scheduling SPI: a Strategy elects wrappers out of the per-rail window
// view, with the rails' nominal capabilities and sampled achieved
// bandwidth in hand. WithStrategy accepts a registry name or a Strategy
// value; RegisterStrategy adds names (error on duplicates); the
// built-ins — default, aggreg, split, prio, adaptive — are implemented
// on the same SPI:
//
//	e0, _ := cl.Engine(0, nmad.WithStrategy(myStrategy{}))
//	_ = nmad.RegisterStrategy("mine", func() nmad.Strategy { return myStrategy{} })
//
// # Subsystems
//
// Each subsystem is documented once, by the package that implements it
// (README.md has the narrative tour with examples):
//
//   - collectives and algorithm selection (WithCollAlgo,
//     RegisterCollAlgo): internal/madmpi, collsched.go and collalgo.go.
//   - flow control and overload (WithCredits, WithMaxGrants):
//     internal/core.
//   - multi-tenant job queue (NewQueue, WithTenant): internal/queue.
//   - fault injection (WithFaults) and link-layer reliability
//     (WithReliability): internal/simnet faults.go, internal/core
//     reliab.go.
//   - recording and replaying schedules (WithRecording, ReplayAB):
//     internal/trace record.go, internal/replay.
//   - declarative scenarios (LoadScenario, RunScenario, cmd/nmad-sim):
//     internal/scenario.
//   - static analysis of the determinism, counter-coverage, sentinel and
//     SPI-aliasing invariants (cmd/nmad-vet): internal/analysis.
//   - figures and measurement: internal/bench regenerates the paper's
//     figures in virtual time, pinned by goldens; benchmark/ measures
//     host cost.
//
// # Layout
//
//   - package nmad (this package): the facade — Cluster assembly,
//     functional options, and re-exports of the engine, MAD-MPI,
//     profiles and tracing.
//   - internal/sim: the discrete-event kernel (virtual clock, cooperative
//     processes, condition variables).
//   - internal/simnet: NIC/wire/host cost models and the five network
//     profiles (MX/Myri-10G, QsNetII, GM/Myrinet-2000, SISCI/SCI, TCP).
//   - internal/drivers: the transfer layer — one minimal driver per
//     network, with capability reports.
//   - sched: the public scheduling SPI — Strategy, the Window/Wrapper
//     views, Election, RailInfo, lifecycle hooks, the strategy registry
//     and the five built-in strategies.
//   - internal/core: the engine — collect layer, optimization window,
//     election validation against the SPI, rendezvous protocol,
//     resequencing receive path, the unified Request layer and the
//     vector (iovec) path.
//   - internal/madmpi: MAD-MPI — communicators, point-to-point,
//     derived datatypes, and the collective schedule engine with its
//     pluggable algorithm registry.
//   - internal/trace: scheduling-decision timelines (text and Chrome
//     trace-event export) and the versioned record/replay format.
//   - internal/replay: re-drives a recording under any strategy or
//     credit budget; golden-timeline determinism tests.
//   - internal/scenario: the declarative scenario harness — YAML-subset
//     parser, validation, phase workloads, mid-run events, assertions.
//   - internal/queue: the multi-tenant job queue — bounded admission,
//     weighted fair-share (stride) dispatch, class-based priority with
//     aging, per-tenant counters.
//   - internal/baseline: MPICH-like and OpenMPI-like comparators.
//   - internal/bench: the harness regenerating every evaluation figure,
//     each pinned byte-for-byte by a golden under testdata/figures.
//   - internal/analysis, cmd/nmad-vet: the static-analysis suite
//     enforcing the engine's invariants.
//
// # Quick start
//
//	cl, _ := nmad.NewCluster(2)
//	e0, _ := cl.Engine(0)
//	e1, _ := cl.Engine(1)
//	cl.Spawn("sender", func(p *nmad.Proc) {
//		e0.Gate(1).Send(p, 7, []byte("hello"))
//	})
//	cl.Spawn("receiver", func(p *nmad.Proc) {
//		buf := make([]byte, 64)
//		n, _ := e1.Gate(0).Recv(p, 7, buf)
//		fmt.Printf("got %q\n", buf[:n])
//	})
//	cl.Run()
package nmad
