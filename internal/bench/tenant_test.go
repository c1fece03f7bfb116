package bench

import (
	"reflect"
	"testing"
)

func TestTenantIsolationBound(t *testing.T) {
	base := tenantIsolationConfig{BurstSize: 4 << 10, Iters: 16, RPCSize: 64}
	unloaded, err := tenantIsolation(base)
	if err != nil {
		t.Fatal(err)
	}
	if unloaded.VictimUs <= 0 {
		t.Fatalf("unloaded victim completion %v, want > 0", unloaded.VictimUs)
	}
	for _, msgs := range []int{8, 32, 128} {
		cfg := base
		cfg.BurstMsgs = msgs
		r, err := tenantIsolation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The acceptance bound: the competing burst must not starve the
		// victim past 2x its unloaded completion, and the burst tenant
		// must itself complete.
		if r.VictimUs > 2*unloaded.VictimUs {
			t.Errorf("msgs=%d: victim %.1fµs under burst > 2x unloaded %.1fµs",
				msgs, r.VictimUs, unloaded.VictimUs)
		}
		if r.BurstUs <= 0 {
			t.Errorf("msgs=%d: burst tenant never completed", msgs)
		}
		if st := r.Stats; st.JobsCompleted != 2 || st.JobsRejected != 0 {
			t.Errorf("msgs=%d: jobs completed/rejected = %d/%d, want 2/0",
				msgs, st.JobsCompleted, st.JobsRejected)
		}
	}
}

func TestTenantIsolationDeterministic(t *testing.T) {
	cfg := tenantIsolationConfig{BurstMsgs: 32, BurstSize: 4 << 10, Iters: 16, RPCSize: 64}
	a, err := tenantIsolation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tenantIsolation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
}
