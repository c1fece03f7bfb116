package bench

import (
	"reflect"
	"testing"
)

func TestTenantIsolationBound(t *testing.T) {
	unloaded, err := tenantIsolation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := unloaded.Phases[0].End
	if base <= 0 {
		t.Fatalf("unloaded victim completion %v, want > 0", base)
	}
	if st := unloaded.Stats[0]; st.JobsCompleted != 1 || st.JobsRejected != 0 {
		t.Errorf("unloaded: jobs completed/rejected = %d/%d, want 1/0", st.JobsCompleted, st.JobsRejected)
	}
	for _, msgs := range []int{8, 32, 128} {
		rep, err := tenantIsolation(nil, msgs)
		if err != nil {
			t.Fatal(err)
		}
		// The acceptance bound: the competing burst must not starve the
		// victim past 2x its unloaded completion, and the burst tenant
		// must itself complete.
		if victim := rep.Phases[0].End; victim > 2*base {
			t.Errorf("msgs=%d: victim %v under burst > 2x unloaded %v", msgs, victim, base)
		}
		for _, ph := range rep.Phases[1:] {
			if !ph.Done || ph.End <= 0 {
				t.Errorf("msgs=%d: burst phase %s never completed", msgs, ph.Name)
			}
		}
		if st := rep.Stats[0]; st.JobsCompleted != 3 || st.JobsRejected != 0 {
			t.Errorf("msgs=%d: jobs completed/rejected = %d/%d, want 3/0",
				msgs, st.JobsCompleted, st.JobsRejected)
		}
	}
}

func TestTenantIsolationDeterministic(t *testing.T) {
	a, err := tenantIsolation(nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tenantIsolation(nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
}
