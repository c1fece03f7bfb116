// Package scenario is the declarative scenario harness: it loads a
// YAML description of a cluster experiment — the machine, a timeline of
// workload phases, mid-run interventions, and assertions — and runs it
// on the simulated optimizer, reporting which assertions held.
//
// A scenario file has up to seven sections — name, description,
// cluster, tenants (with its queue sibling), phases, events and
// assertions:
//
//	name: midrun-failover
//	description: traffic survives a rail outage at 1% drop
//	cluster:
//	  nodes: 4
//	  rails: [mx10g, tcp]          # simnet profiles, in rail order
//	  engine:                      # the per-node personality
//	    strategy: aggreg
//	    reliability: true
//	    credits: 16
//	  faults:                      # lossy fabric from time zero
//	    seed: 42
//	    rails:
//	      - drop: 0.01
//	phases:                        # the workload timeline
//	  - name: storm
//	    kind: incast
//	    at: 100us
//	    target: 0
//	    msgs: 32
//	    size: 2048
//	events:                        # mid-run interventions
//	  - at: 300us
//	    action: rail_outage
//	    rail: 0
//	    duration: 150us
//	  - at: 600us
//	    action: checkpoint
//	    name: after-outage
//	assertions:
//	  - type: integrity            # every payload verified
//	  - type: stats
//	    field: retransmits
//	    op: ">"
//	    value: 0
//	  - type: completion
//	    max: 20ms
//
// Phase kinds: pingpong, ring, incast, composite (bulk + urgent control
// on one gate), barrier, bcast, allgather, allreduce, alltoall. Every
// payload carries a deterministic fill pattern that the receiver
// verifies; corruption is counted and surfaced through the `integrity`
// assertion. Phases are declared in strictly increasing start order but
// may overlap in flight — that is how bursty multi-phase scenarios are
// built.
//
// A top-level tenants list declares multi-tenant workloads:
//
//	tenants:
//	  - name: interactive
//	    weight: 4
//	    class: latency             # bulk | normal | latency
//	  - name: batch                # weight defaults to 1, class to normal
//	queue:                         # optional; defaults apply when absent
//	  node: 0                      # which node hosts the queue
//	  capacity: 8
//	  workers: 1
//	  aging: 2ms
//
// When a tenants list is present, every phase tagged `tenant: <name>`
// is submitted through a job queue (package queue) on the chosen node
// instead of spawning at its start time: its `at` becomes the submit
// instant, and dispatch order follows the tenants' weighted fair
// share, classes and aging. The queue's counters (jobs_admitted,
// jobs_rejected, jobs_dispatched, jobs_completed, jobs_aged,
// peak_queue_depth, peak_job_wait) land in core.Stats and are
// assertable like any other field. Without a tenants list, `tenant`
// stays a report-only label.
//
// Event actions: degrade_rail / restore_rail (wire-speed scaling),
// set_faults (new drop/dup/reorder probabilities, preserving the seeded
// RNG stream), rail_outage (a death window starting now), slow_node /
// restore_node (host memcpy slowdown), squeeze_credits (freeze credit
// replenishment on one node for a bounded window), checkpoint (snapshot
// the counters under a name assertions can anchor at).
//
// Assertion types: stats (every exported integer field of core.Stats
// under its snake_case name — OutputPackets is output_packets — plus the
// derived aggregation_ratio; selector sum/max/all or a node id), faults
// (likewise every field of simnet.FaultStats, per rail or summed),
// completion (virtual-time bounds on a phase or the whole run),
// integrity, phase_order (one phase must finish no later than another).
//
// Everything is virtual-time and seeded, so a scenario run is
// byte-deterministic: the same file produces the same report, counters
// included, on every run. Config.Record captures the offered load in
// the trace.Recording format, stamped with the scenario name and seed,
// replayable through package replay.
//
// The package deliberately parses only a YAML subset (see yaml.go) so
// the repository needs no YAML dependency; files using unsupported
// constructs fail with ErrSyntax. All parse and validation failures
// wrap the sentinel errors in errors.go, so `nmad-sim validate` can
// classify every mistake in a file.
package scenario
