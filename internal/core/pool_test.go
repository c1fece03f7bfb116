package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"nmad/internal/sim"
)

// Deferred eager-receive completions wait in one engine queue, and each
// event pops its head. The queue must follow the events' order — by due
// instant, ties in match order — whatever the order of the matches: a
// small receive matched after a large one finishes its copy first.
func TestDeferredCompletionOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.SubmitOverhead = 0 // a post matches a waiting message at its own instant
	w, e0, e1 := testWorld(t, opts)
	const t1 = 100 * sim.Microsecond
	recvs := []struct {
		tag     Tag
		size    int // message
		buf     int // landing area
		postAt  sim.Time
		wantErr error
	}{
		{tag: 1, size: 4096, buf: 4096, postAt: t1},
		{tag: 2, size: 64, buf: 64, postAt: t1 + sim.Microsecond},
		{tag: 3, size: 256, buf: 256, postAt: 2 * t1},
		{tag: 4, size: 256, buf: 256, postAt: 2 * t1},
		{tag: 5, size: 512, buf: 100, postAt: 3 * t1, wantErr: ErrTruncated},
	}
	w.Spawn("send", func(p *sim.Proc) {
		var reqs []Request
		for _, r := range recvs {
			reqs = append(reqs, e0.Gate(1).Isend(p, r.tag, bytes.Repeat([]byte{byte(r.tag)}, r.size)))
		}
		if err := WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
	})
	reqs := make([]RecvRequest, len(recvs))
	bufs := make([][]byte, len(recvs))
	doneAt := make([]sim.Time, len(recvs))
	errs := make([]error, len(recvs))
	var order []int
	for i, r := range recvs {
		bufs[i] = make([]byte, r.buf)
		w.At(r.postAt, func() {
			e1.Gate(0).PostRecvvMasked(&reqs[i], r.tag, ^Tag(0), [][]byte{bufs[i]}, func(_ uint32, err error) {
				doneAt[i], errs[i] = w.Now(), err
				order = append(order, i)
			})
		})
	}
	run(t, w)

	if want := []int{1, 0, 2, 3, 4}; !slices.Equal(order, want) {
		t.Errorf("receives completed in order %v, want %v", order, want)
	}
	for i, r := range recvs {
		n := min(r.size, r.buf)
		if want := r.postAt + e1.node.CopyCost(n); doneAt[i] != want {
			t.Errorf("tag %d: completed at %v, want its match instant %v + copy cost of %d B = %v",
				r.tag, doneAt[i], r.postAt, n, want)
		}
		if !errors.Is(errs[i], r.wantErr) {
			t.Errorf("tag %d: completed with %v, want %v", r.tag, errs[i], r.wantErr)
		}
		if reqs[i].N() != n || !bytes.Equal(bufs[i][:n], bytes.Repeat([]byte{byte(r.tag)}, n)) {
			t.Errorf("tag %d: received %d B %v, want %d B of %d", r.tag, reqs[i].N(), bufs[i][:min(8, n)], n, r.tag)
		}
	}
}

// Converting a send to a rendezvous frees its data wrapper at once, and
// the next send reuses it. The rendezvous record must hold its own copy
// of the body's segment list: a fresh wrapper's list is its inline seg,
// which recycling clears and the eager sends behind overwrite.
func TestRendezvousBodySurvivesWrapperReuse(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	const bigTag, big, small, smalls = 1, 256 << 10, 100, 8
	pattern := func(tag Tag, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(int(tag)*31 + i)
		}
		return b
	}
	w.Spawn("send", func(p *sim.Proc) {
		reqs := []Request{e0.Gate(1).Isend(p, bigTag, pattern(bigTag, big))}
		for tag := Tag(2); tag < 2+smalls; tag++ {
			reqs = append(reqs, e0.Gate(1).Isend(p, tag, pattern(tag, small)))
		}
		if err := WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for tag := Tag(2); tag < 2+smalls; tag++ {
			buf := make([]byte, small)
			if n, err := e1.Gate(0).Recv(p, tag, buf); err != nil || n != small || !bytes.Equal(buf, pattern(tag, small)) {
				t.Errorf("eager tag %d: %d B, %v, or its bytes differ from what was sent", tag, n, err)
			}
		}
		buf := make([]byte, big)
		n, err := e1.Gate(0).Recv(p, bigTag, buf)
		if err != nil || n != big {
			t.Errorf("rendezvous: %d B, %v; want %d B", n, err, big)
		} else if !bytes.Equal(buf, pattern(bigTag, big)) {
			t.Error("rendezvous body corrupted: it streamed from a recycled wrapper's segment")
		}
	})
	run(t, w)
	if s := e0.Stats(); s.RdvStarted != 1 || s.RdvCompleted != 1 {
		t.Errorf("rendezvous started %d, completed %d; want one each", s.RdvStarted, s.RdvCompleted)
	}
}
