// Package scenario is the declarative scenario harness: it loads a
// YAML description of a cluster experiment — the machine, a timeline of
// workload phases, mid-run interventions, and assertions — and runs it
// on the simulated optimizer, reporting which assertions held.
//
// The format is defined by the structs of schema.go (a mapping's keys are
// its struct's fields) and three vocabulary tables: phaseKinds,
// eventActions and assertTypes, one row per name with its validation and
// its behaviour. The one prose listing of every key and name is the
// "Schema reference" paragraph of the repository README, next to a worked
// example; TestReadmeNamesTheSchema fails when it misses one. What no
// listing says:
//
// Every payload carries a deterministic fill pattern, a byte ramp that
// starts at a byte c fixed by its phase, sender and message. The
// receiver checks that the receive completed at full length and that
// every 256-byte chunk is memequal to the ramp's window at c;
// corruption is counted and surfaced through the `integrity`
// assertion. Phases are declared in strictly increasing start order but
// may overlap in flight — that is how bursty multi-phase scenarios are
// built. Each phase owns the user-tag window and the payload pattern of
// its position in Scenario.Phases, so overlapping phases never match
// each other's messages.
//
// A Scenario may also be built in Go rather than parsed: Run validates
// it as it would a file, and the figure harness (package bench) runs
// its incast, lossy-collective and tenant-isolation points that way. A
// literal spells out what Parse would default — a phase's Count and Msgs
// of 1, the cluster's rails and engine personality
// (core.DefaultOptions().NodeConfig).
//
// When a tenants list is present, every phase tagged `tenant: <name>`
// is submitted through a job queue (package queue) on the chosen node
// instead of spawning at its start time: its `at` becomes the submit
// instant, and dispatch order follows the tenants' weighted fair
// share, classes and aging. The phase's point-to-point sends carry its
// tenant's send options (queue.Tenant.SendOptions: Priority for the
// latency class), so the engine schedules the phase the way the queue
// ranks it; collective phases take no send options. The queue's
// counters (jobs_admitted, jobs_rejected, jobs_dispatched,
// jobs_completed, jobs_aged, peak_queue_depth, peak_job_wait) land in
// core.Stats and are assertable like any other field. Without a tenants
// list, `tenant` stays a report-only label.
//
// A stats assertion reads any exported integer field of core.Stats under
// its snake_case name — OutputPackets is output_packets — plus the
// derived aggregation_ratio; a faults assertion likewise any field of
// simnet.FaultStats. A checkpoint event snapshots the counters under a
// name, and an assertion anchored `at:` that name sees the mid-run
// values.
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
// classify every mistake in a file. Validate also bounds what a file may
// make Run allocate (maxNodes, maxSize, ... in validate.go).
package scenario
