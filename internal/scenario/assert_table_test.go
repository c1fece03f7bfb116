package scenario

import (
	"reflect"
	"testing"

	"nmad/internal/core"
	"nmad/internal/simnet"
)

// The assertion tables are derived from the counter structs, so "table ≡
// struct" holds by construction. What is left to pin is the derivation
// rule itself: the names scenarios and the package doc rely on resolve,
// every exported field is either assertable or knowingly skipped, each
// accessor reads its own field, and evaluating one allocates nothing.
func TestDerivedStatsTable(t *testing.T) {
	// Named in doc.go or used by the committed corpus.
	for _, name := range []string{
		"retransmits", "output_packets", "aggregated_packets", "credits_sent",
		"peak_unexpected", "protocol_errors", "rdv_completed", "wire_bytes",
		"jobs_admitted", "jobs_rejected", "jobs_dispatched", "jobs_completed",
		"jobs_aged", "peak_queue_depth", "peak_job_wait",
		"aggregation_ratio",
	} {
		if statsFields[name] == nil {
			t.Errorf("stats field %q does not resolve", name)
		}
	}
	for _, name := range []string{"dropped", "outage_dropped", "duplicated", "reordered"} {
		if faultFields[name] == nil {
			t.Errorf("faults field %q does not resolve", name)
		}
	}

	// A field without a scalar value is skipped, never half-exposed; any
	// other exported field must be in the table and read back its own
	// value (set to a number no other field holds).
	skipped := map[string]bool{"PerDriverBytes": true}
	var s core.Stats
	v := reflect.ValueOf(&s).Elem()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		fn := statsFields[snake(f.Name)]
		if skipped[f.Name] {
			if fn != nil {
				t.Errorf("core.Stats.%s is not a scalar but has an accessor", f.Name)
			}
			continue
		}
		if fn == nil {
			t.Errorf("core.Stats.%s (%s) is not assertable: teach fieldTable its kind or list it as skipped", f.Name, f.Type)
			continue
		}
		want := int64(1000 + i)
		v.Field(i).SetInt(want)
		if got := fn(&s); got != float64(want) {
			t.Errorf("accessor %q reads %v, want %v", snake(f.Name), got, want)
		}
	}
	if len(faultFields) != reflect.TypeFor[simnet.FaultStats]().NumField() {
		t.Errorf("faultFields has %d entries for the %d fields of simnet.FaultStats",
			len(faultFields), reflect.TypeFor[simnet.FaultStats]().NumField())
	}

	s = core.Stats{EntriesSent: 6, OutputPackets: 4}
	if got := statsFields["aggregation_ratio"](&s); got != 1.5 {
		t.Errorf("aggregation_ratio = %v, want 1.5", got)
	}
}

// The scenario-corpus benchmark workload bounds host_allocs_per_op at 2%:
// evaluating an assertion must not box or copy the snapshot.
func TestStatsAccessorDoesNotAllocate(t *testing.T) {
	snap := &snapshot{Stats: make([]core.Stats, 4), Faults: make([]simnet.FaultStats, 2)}
	snap.Stats[2].Retransmits = 7
	stat, ratio, fault := statsFields["retransmits"], statsFields["aggregation_ratio"], faultFields["dropped"]
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += stat(&snap.Stats[2]) + ratio(&snap.Stats[2]) + fault(&snap.Faults[1])
	}); n != 0 {
		t.Errorf("evaluating three accessors allocates %v times", n)
	}
	if sink == 0 {
		t.Error("accessors read nothing")
	}
}

func TestSnake(t *testing.T) {
	cases := map[string]string{
		"Submitted":           "submitted",
		"OutputPackets":       "output_packets",
		"MaxEntriesPerPacket": "max_entries_per_packet",
		"RdvStarted":          "rdv_started",
		"DupAcks":             "dup_acks",
		"CtrlPiggybacked":     "ctrl_piggybacked",
		"WireBytes":           "wire_bytes",
		"RDMABytes":           "rdma_bytes",
		"AggregationRatio":    "aggregation_ratio",
		"OutageDropped":       "outage_dropped",
		"X":                   "x",
		"":                    "",
	}
	for in, want := range cases {
		if got := snake(in); got != want {
			t.Errorf("snake(%q) = %q, want %q", in, got, want)
		}
	}
}
