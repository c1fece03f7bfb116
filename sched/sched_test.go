package sched

import (
	"strings"
	"testing"
)

// fakeWindow drives strategies without an engine: the SPI is testable in
// isolation, which is half the point of having it.
type fakeWindow struct {
	ws []Wrapper
}

func (f fakeWindow) Pending() int { return len(f.ws) }
func (f fakeWindow) Credits() int { return -1 }

func (f fakeWindow) Scan(visit func(Wrapper) bool) {
	for _, w := range f.ws {
		if !visit(w) {
			return
		}
	}
}

const testHeader = 24 // mirrors the engine's entry header size

// The value-typed built-ins as the registry makes them.
func newDefault() Strategy { return defaultStrategy{newAccumulator()} }
func newAggreg() Strategy  { return aggregStrategy{newAccumulator()} }

func mkw(payload, paySegs int, fl Flags) Wrapper {
	return Wrapper{
		Len:      payload,
		WireSize: testHeader + payload,
		Segments: 1 + paySegs,
		Flags:    fl,
		Ref:      new(int),
	}
}

func testRail(maxSegs, rdvThreshold int, nominal, sampled float64) RailInfo {
	r := RailInfo{Index: 0, Name: "fake", Sampled: sampled}
	r.Caps.MaxSegments = maxSegs
	r.Caps.RdvThreshold = rdvThreshold
	r.Caps.Bandwidth = nominal
	return r
}

func tags(el *Election) []uint64 {
	var out []uint64
	for _, w := range el.Wrappers() {
		out = append(out, w.Tag)
	}
	return out
}

func TestElectionAccounting(t *testing.T) {
	el := new(Election)
	if !el.Empty() || el.Len() != 0 {
		t.Fatal("zero election must be empty")
	}
	var nilEl *Election
	if !nilEl.Empty() {
		t.Fatal("nil election must read as empty")
	}
	a, b := mkw(100, 1, 0), mkw(50, 2, Priority)
	el.Pick(a).Pick(b)
	if el.Len() != 2 || el.WireSize() != a.WireSize+b.WireSize || el.Segments() != a.Segments+b.Segments {
		t.Errorf("accounting: len=%d wire=%d segs=%d", el.Len(), el.WireSize(), el.Segments())
	}
	rail := testRail(8, 32<<10, 1e9, 0)
	if !el.Fits(mkw(10, 1, 0), rail) {
		t.Error("small wrapper should fit")
	}
	if el.Fits(mkw(10, 6, 0), rail) {
		t.Error("wrapper overflowing the gather list must not fit")
	}
	if el.Fits(mkw(40<<10, 1, 0), rail) {
		t.Error("wrapper overflowing the byte budget must not fit")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"default", "aggreg", "split", "prio", "adaptive"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing built-in %q", names, want)
		}
	}
	if err := Register("aggreg", func() Strategy { return newDefault() }); err == nil {
		t.Error("duplicate registration must error")
	}
	if err := Register("", nil); err == nil {
		t.Error("empty registration must error")
	}
	if _, err := New("no-such-strategy"); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("New(unknown) = %v", err)
	}
	s, err := New("aggreg")
	if err != nil || s.Name() != "aggreg" {
		t.Errorf("New(aggreg) = %v, %v", s, err)
	}
}

func TestAggregElection(t *testing.T) {
	rail := testRail(16, 4<<10, 1e9, 0)
	bulk := mkw(3<<10, 1, 0)
	small1 := mkw(100, 1, 0)
	ctrl := mkw(0, 0, Control)
	small2 := mkw(100, 1, 0)
	bulk.Tag, small1.Tag, ctrl.Tag, small2.Tag = 1, 2, 3, 4
	w := fakeWindow{ws: []Wrapper{bulk, small1, ctrl, small2}}

	el := newAggreg().Elect(w, rail)
	got := tags(el)
	// Control jumps to the front; the bulk wrapper fits, smalls follow.
	want := []uint64{3, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("elected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elected %v, want %v", got, want)
		}
	}
}

func TestAggregReordersPastMisfit(t *testing.T) {
	rail := testRail(16, 2<<10, 1e9, 0)
	big := mkw(3<<10, 1, 0) // exceeds the aggregation budget alone
	small := mkw(64, 1, 0)
	big.Tag, small.Tag = 1, 2
	w := fakeWindow{ws: []Wrapper{big, small}}

	el := newAggreg().Elect(w, rail)
	// The small wrapper is pulled past the misfit...
	if got := tags(el); len(got) != 1 || got[0] != 2 {
		t.Fatalf("elected %v, want [2]", got)
	}
	// ...and the lone misfit still goes out by itself (progress).
	el = newAggreg().Elect(fakeWindow{ws: []Wrapper{big}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 1 {
		t.Fatalf("elected %v, want [1]", got)
	}
}

func TestDefaultSkipsUngatherable(t *testing.T) {
	rail := testRail(2, 32<<10, 1e9, 0)
	wide := mkw(100, 4, 0) // 5 segments on a 2-segment rail
	ok := mkw(100, 1, 0)
	wide.Tag, ok.Tag = 1, 2
	el := newDefault().Elect(fakeWindow{ws: []Wrapper{wide, ok}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 2 {
		t.Fatalf("elected %v, want [2]", got)
	}
	if el := newDefault().Elect(fakeWindow{ws: []Wrapper{wide}}, rail); !el.Empty() {
		t.Error("nothing sendable: election must be empty")
	}
}

func TestPrioPreemptsBulk(t *testing.T) {
	rail := testRail(16, 32<<10, 1e9, 0)
	bulk := mkw(8<<10, 1, 0)
	urgent := mkw(16, 1, Priority)
	bulk.Tag, urgent.Tag = 1, 2
	el := newPrio().Elect(fakeWindow{ws: []Wrapper{bulk, urgent}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 2 {
		t.Fatalf("elected %v, want the urgent wrapper alone", got)
	}
	// Without urgent traffic it degrades to aggregation.
	el = newPrio().Elect(fakeWindow{ws: []Wrapper{bulk}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 1 {
		t.Fatalf("elected %v, want [1]", got)
	}
}

func TestPrioSkipsUnfitUrgentAcrossFlows(t *testing.T) {
	// Regression: one oversized urgent wrapper used to abort the whole
	// urgent scan, so fittable urgent wrappers on other flows fell
	// through to the aggregation fallback and departed mixed with bulk.
	rail := testRail(16, 16<<10, 1e9, 0)
	huge := mkw(16<<10-10, 1, Priority) // wire size 24+16374 > the 16K budget
	small := mkw(16, 1, Priority)
	bulk := mkw(8<<10, 1, 0)
	huge.Tag, small.Tag, bulk.Tag = 1, 2, 3
	el := newPrio().Elect(fakeWindow{ws: []Wrapper{huge, small, bulk}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 2 {
		t.Fatalf("elected %v, want the fitting urgent wrapper [2] alone", got)
	}
}

func TestPrioHoldsOrderedFlowBehindUnfitHead(t *testing.T) {
	// Skip-and-continue must not leapfrog within one ordered flow: a
	// later urgent wrapper on the blocked tag would only sit in the
	// receiver's resequencing buffer behind the hole. Other flows stay
	// eligible.
	rail := testRail(16, 16<<10, 1e9, 0)
	head := mkw(16<<10-10, 1, Priority)
	next := mkw(16, 1, Priority)
	other := mkw(16, 1, Priority)
	head.Tag, head.Seq = 7, 0
	next.Tag, next.Seq = 7, 1
	other.Tag = 9
	el := newPrio().Elect(fakeWindow{ws: []Wrapper{head, next, other}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 9 {
		t.Fatalf("elected %v, want only the other flow [9]", got)
	}
	// An unordered urgent wrapper on the blocked tag has no sequence and
	// stays eligible.
	ctrl := mkw(0, 0, Priority|Unordered)
	ctrl.Tag = 7
	el = newPrio().Elect(fakeWindow{ws: []Wrapper{head, ctrl}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 7 {
		t.Fatalf("elected %v, want the unordered control wrapper", got)
	}
}

func TestPrioLoneUnfitUrgentStillDeparts(t *testing.T) {
	// A wrapper whose wire size exceeds the aggregation budget but whose
	// payload stays under the rendezvous threshold never converts to
	// rendezvous and never fits an election — it must go out alone
	// instead of starving behind a perpetually refilled bulk stream.
	rail := testRail(16, 16<<10, 1e9, 0)
	huge := mkw(16<<10-10, 1, Priority)
	bulk := mkw(8<<10, 1, 0)
	huge.Tag, bulk.Tag = 1, 3
	el := newPrio().Elect(fakeWindow{ws: []Wrapper{huge, bulk}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 1 {
		t.Fatalf("elected %v, want the oversized urgent wrapper [1] alone", got)
	}
}

func TestPrioCapsFallbackWhileUrgentPending(t *testing.T) {
	// Regression: with urgent traffic pending but ungatherable on this
	// rail, the fallback used to build full-size bulk trains — priority
	// inversion. The capped fallback keeps bulk moving in short trains.
	rail := testRail(8, 16<<10, 1e9, 0)
	wide := mkw(100, 15, Priority) // 16 segments on an 8-segment rail
	wide.Tag = 1
	ws := []Wrapper{wide}
	for i := 0; i < 6; i++ {
		b := mkw(1<<10, 1, 0)
		b.Tag = uint64(10 + i)
		ws = append(ws, b)
	}
	el := newPrio().Elect(fakeWindow{ws: ws}, rail)
	if el.Empty() {
		t.Fatal("bulk must keep flowing while the urgent wrapper waits for a wider rail")
	}
	for _, w := range el.Wrappers() {
		if w.Urgent() {
			t.Fatalf("elected %v: the ungatherable urgent wrapper must stay behind", tags(el))
		}
	}
	if cap := (16 << 10) / 4; el.WireSize() > cap {
		t.Errorf("fallback train carries %dB of wire, want <= the %dB headroom cap", el.WireSize(), cap)
	}
	// Without urgent traffic the fallback budget is the full threshold.
	full := newPrio().Elect(fakeWindow{ws: ws[1:]}, rail)
	if full.WireSize() <= el.WireSize() {
		t.Errorf("unconstrained fallback (%dB) should out-aggregate the capped one (%dB)", full.WireSize(), el.WireSize())
	}
}

func validateCover(t *testing.T, plan []BodyShare, size int) {
	t.Helper()
	off := 0
	for _, s := range plan {
		if s.Offset != off || s.Size <= 0 {
			t.Fatalf("plan %v does not cover [0,%d) in order", plan, size)
		}
		off += s.Size
	}
	if off != size {
		t.Fatalf("plan %v covers %d of %d bytes", plan, off, size)
	}
}

func TestSplitPlanProportional(t *testing.T) {
	fast := testRail(16, 32<<10, 3e9, 0)
	slow := testRail(16, 32<<10, 1e9, 0)
	fast.Index, slow.Index = 0, 1
	rails := []RailInfo{fast, slow}

	size := 4 << 20
	plan := newSplit().PlanBody(rails, size)
	validateCover(t, plan, size)
	if len(plan) != 2 {
		t.Fatalf("plan %v, want two shares", plan)
	}
	ratio := float64(plan[0].Size) / float64(plan[1].Size)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("share ratio %.2f, want ~3 (bandwidth-proportional)", ratio)
	}

	// Small bodies stay on the best rail.
	plan = newSplit().PlanBody(rails, 1<<10)
	if len(plan) != 1 || plan[0].Rail != 0 {
		t.Errorf("small-body plan %v, want single share on rail 0", plan)
	}

	// The sampled figure overrides the nominal one.
	congested := fast
	congested.Sampled = 0.5e9
	plan = newSplit().PlanBody([]RailInfo{congested, slow}, size)
	validateCover(t, plan, size)
	if plan[0].Size >= plan[1].Size {
		t.Errorf("plan %v: congested rail must get the smaller share", plan)
	}
}

func TestAccumulateZeroThresholdStillAggregates(t *testing.T) {
	// RdvThreshold 0 is legal (an eager-only rail). It must mean "no byte
	// budget", not "no budget at all": the buggy version rejected every
	// wrapper from FitsWithin and degenerated to one-wrapper packets
	// through the progress fallback.
	rail := testRail(16, 0, 1e9, 0)
	var ws []Wrapper
	for i := 0; i < 4; i++ {
		w := mkw(128, 1, 0)
		w.Tag = uint64(i + 1)
		ws = append(ws, w)
	}
	ctrl := mkw(0, 0, Control)
	ctrl.Tag = 9
	ws = append(ws, ctrl)
	for _, s := range []Strategy{newAggreg(), newAdaptive()} {
		el := s.Elect(fakeWindow{ws: ws}, rail)
		if el.Len() != len(ws) {
			t.Errorf("%s elected %d of %d wrappers on a RdvThreshold=0 rail", s.Name(), el.Len(), len(ws))
		}
	}
	// The semantics live in Fits/FitsWithin, so prio's urgent pass (and
	// any custom strategy budgeting with Fits) works on threshold-0
	// rails too.
	if !new(Election).Fits(ws[0], rail) {
		t.Error("Fits must treat a zero byte budget as unlimited")
	}
	bulk := mkw(8<<10, 1, 0)
	urgent := mkw(16, 1, Priority)
	bulk.Tag, urgent.Tag = 1, 42
	el := newPrio().Elect(fakeWindow{ws: []Wrapper{bulk, urgent}}, rail)
	if got := tags(el); len(got) != 1 || got[0] != 42 {
		t.Errorf("prio on a RdvThreshold=0 rail elected %v, want the urgent wrapper alone", got)
	}
}

func TestAdaptiveFloorsCollapsedBudget(t *testing.T) {
	// A small threshold scaled by a collapsed bandwidth sample drops
	// below one entry header; the floor keeps control entries and small
	// data aggregable instead of forcing one-wrapper packets.
	mkws := func() []Wrapper {
		ctrl := mkw(0, 0, Control)
		ctrl.Tag = 9
		ws := []Wrapper{ctrl}
		for i := 0; i < 3; i++ {
			w := mkw(16, 1, 0)
			w.Tag = uint64(i + 1)
			ws = append(ws, w)
		}
		return ws
	}
	// Threshold 64 scaled to 16 (< one header): floored back to the
	// rail's own cap, so a control entry still aggregates with data.
	ws := mkws()
	el := newAdaptive().Elect(fakeWindow{ws: ws}, testRail(16, 64, 1e9, 1e6))
	if el.Len() < 2 {
		t.Errorf("collapsed budget elected %d wrappers; the floored budget must keep small wrappers aggregable", el.Len())
	}
	// A roomier threshold floors at adaptiveMinBudget: everything fits.
	el = newAdaptive().Elect(fakeWindow{ws: ws}, testRail(16, 512, 1e9, 1e6))
	if el.Len() != len(ws) {
		t.Errorf("512B-threshold rail elected %d of %d wrappers under the floored budget", el.Len(), len(ws))
	}
	// The floor must never inflate the budget past the rail's unscaled
	// threshold: a healthy 100B rail keeps its 100B cap (one small data
	// wrapper per train alongside control, not adaptiveMinBudget worth).
	el = newAdaptive().Elect(fakeWindow{ws: mkws()}, testRail(16, 100, 1e9, 0))
	if got := el.WireSize(); got > 100 {
		t.Errorf("healthy 100B-threshold rail elected %dB of wire, exceeding the rail's aggregation cap", got)
	}
}

func TestAdaptiveShrinksAggregationUnderCongestion(t *testing.T) {
	healthy := testRail(16, 8<<10, 1e9, 0)
	congested := testRail(16, 8<<10, 1e9, 0.4e9) // achieving 40% of nominal

	var ws []Wrapper
	for i := 0; i < 4; i++ {
		w := mkw(2<<10, 1, 0)
		w.Tag = uint64(i)
		ws = append(ws, w)
	}
	s := newAdaptive()
	full := s.Elect(fakeWindow{ws: ws}, healthy).Len() // read before the value's next Elect reuses the election
	short := s.Elect(fakeWindow{ws: ws}, congested)
	if full <= short.Len() {
		t.Errorf("congested rail train (%d) must be shorter than healthy (%d)", short.Len(), full)
	}
	if short.Empty() {
		t.Error("congestion must never starve the rail entirely")
	}
}

func TestAdaptiveDropsCollapsedRail(t *testing.T) {
	size := 4 << 20
	// Both orderings: the collapsed rail must be avoided whether it is
	// engine rail 0 or 1 (plans carry engine indices, not slice
	// positions).
	for deadIdx := 0; deadIdx < 2; deadIdx++ {
		fast := testRail(16, 32<<10, 1e9, 1e9)
		dead := testRail(16, 32<<10, 1e9, 0.02e9) // collapsed to 2%
		fast.Index, dead.Index = 1-deadIdx, deadIdx
		rails := make([]RailInfo, 2)
		rails[fast.Index], rails[dead.Index] = fast, dead
		s := newAdaptive()
		plan := s.PlanBody(rails, size)
		validateCover(t, plan, size)
		for _, share := range plan {
			if share.Rail == deadIdx {
				t.Errorf("deadIdx=%d: plan %v routes bytes onto the collapsed rail", deadIdx, plan)
			}
		}
	}
}

func TestBestRailOnFilteredSubset(t *testing.T) {
	r2 := testRail(16, 32<<10, 2e9, 0)
	r5 := testRail(16, 32<<10, 1e9, 0)
	r2.Index, r5.Index = 2, 5
	if got := BestRail([]RailInfo{r5, r2}); got != 2 {
		t.Errorf("BestRail = %d, want engine index 2", got)
	}
	plan := SingleRail([]RailInfo{r5}, 1<<20)
	if len(plan) != 1 || plan[0].Rail != 5 {
		t.Errorf("SingleRail on a subset = %v, want rail 5", plan)
	}
}

// deepWindow is a 64-deep window as the multiflow workload fills it:
// 256-byte data wrappers over 16 flows, with a control entry every
// sixteenth so the urgent pass and prio's own scan both pick.
func deepWindow() Window {
	ws := make([]Wrapper, 64)
	for i := range ws {
		var fl Flags
		if i%16 == 5 {
			fl = Control | Unordered
		}
		ws[i] = mkw(256, 1, fl)
		ws[i].Tag, ws[i].Seq = uint64(i%16), uint32(i/16)
	}
	return fakeWindow{ws: ws}
}

// TestElectAllocatesNothing: a built-in strategy value owns its election
// and its scan visitors, so once the train's storage has grown to the
// window's depth an election makes no heap object at all. The counts are
// exact — the run is deterministic.
func TestElectAllocatesNothing(t *testing.T) {
	rail := testRail(32, 32<<10, 1e9, 0)
	win := deepWindow() // boxed once, outside the measurement
	for _, s := range []Strategy{newDefault(), newAggreg(), newSplit(), newPrio(), newAdaptive()} {
		picked := 0
		allocs := testing.AllocsPerRun(100, func() { picked += s.Elect(win, rail).Len() })
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per election over a 64-deep window, want 0", s.Name(), allocs)
		}
		if picked == 0 {
			t.Errorf("%s: elected nothing", s.Name())
		}
	}
}

// TestElectionNotLeakedIntoTheNext: the election a strategy value returns
// is its own scratch, valid until its next Elect — which must start from
// nothing: no pick, byte or segment of the first train survives into the
// second, and the storage no longer holds the first train's Refs.
func TestElectionNotLeakedIntoTheNext(t *testing.T) {
	rail := testRail(32, 32<<10, 1e9, 0)
	big := fakeWindow{ws: []Wrapper{mkw(100, 1, 0), mkw(200, 1, Priority), mkw(300, 1, 0)}}
	lone := mkw(50, 1, 0)
	for _, s := range []Strategy{newDefault(), newAggreg(), newSplit(), newPrio(), newAdaptive()} {
		first := s.Elect(big, rail)
		stale := first.Wrappers()[:cap(first.Wrappers())]
		n := first.Len()
		second := s.Elect(fakeWindow{ws: []Wrapper{lone}}, rail)
		if second.Len() != 1 || second.Wrappers()[0].Ref != lone.Ref ||
			second.WireSize() != lone.WireSize || second.Segments() != lone.Segments {
			t.Errorf("%s: second election is %d picks, %d B, %d segs after a first of %d picks; want the lone wrapper alone",
				s.Name(), second.Len(), second.WireSize(), second.Segments(), n)
		}
		for i, w := range stale[1:] {
			if w.Ref != nil {
				t.Errorf("%s: slot %d of the reused train still pins a Ref of the first election", s.Name(), i+1)
			}
		}
		if s.Elect(fakeWindow{}, rail) != nil {
			t.Errorf("%s: an empty window elected something", s.Name())
		}
	}
}

// TestPlanBodyAllocatesNothing: "split" and "adaptive" return plans
// backed by the strategy value's own storage (valid until its next
// PlanBody), so once that storage has grown to the rail count a body plan
// makes no heap object — adaptive's collapsed-rail filter included. The
// counts are exact.
func TestPlanBodyAllocatesNothing(t *testing.T) {
	fast := testRail(16, 32<<10, 3e9, 0)
	slow := testRail(16, 32<<10, 1e9, 0)
	dead := testRail(16, 32<<10, 1e9, 0.02e9) // collapsed: adaptive drops it
	fast.Index, slow.Index, dead.Index = 0, 1, 2
	rails := []RailInfo{fast, slow, dead}
	const size = 4 << 20
	for _, s := range []BodyPlanner{newSplit(), newAdaptive()} {
		validateCover(t, s.PlanBody(rails, size), size)
		allocs := testing.AllocsPerRun(100, func() { s.PlanBody(rails, size) })
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per body plan, want 0", s.(Strategy).Name(), allocs)
		}
	}
}
