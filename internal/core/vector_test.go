package core

import (
	"bytes"
	"errors"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// Tests for the first-class vector (iovec) path: Isendv/Irecvv, eager
// and rendezvous, scatter/gather correctness and aggregation behaviour.

func segsOf(rng *sim.RNG, sizes ...int) ([][]byte, []byte) {
	var flat []byte
	iov := make([][]byte, len(sizes))
	for i, n := range sizes {
		iov[i] = make([]byte, n)
		rng.Bytes(iov[i])
		flat = append(flat, iov[i]...)
	}
	return iov, flat
}

func TestIsendvIrecvvEagerRoundTrip(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	iov, flat := segsOf(sim.NewRNG(21), 64, 5, 300, 1)
	// Receive into a DIFFERENT segmentation with the same total: the wire
	// format carries one logical byte range, not the sender's cuts.
	out := [][]byte{make([]byte, 100), make([]byte, 270)}
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Isendv(p, 3, iov).Wait(p); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		req := e1.Gate(0).Irecvv(p, 3, out)
		if err := req.Wait(p); err != nil {
			t.Error(err)
		}
		if req.N() != len(flat) {
			t.Errorf("received %d bytes, want %d", req.N(), len(flat))
		}
	})
	run(t, w)
	got := append(append([]byte(nil), out[0]...), out[1]...)
	if !bytes.Equal(got, flat) {
		t.Error("eager vector payload corrupted")
	}
}

func TestIsendvSingleWrapperSinglePacket(t *testing.T) {
	// The §5.3 point: a non-contiguous layout is ONE wrapper, and with an
	// idle backlog it departs as ONE physical packet whose payload is the
	// concatenated segments — not one packet (or even one wrapper) per
	// block.
	rec := trace.NewRecorder()
	opts := DefaultOptions()
	opts.Tracer = rec
	w, e0, e1 := testWorldMixed(t, opts, DefaultOptions())
	iov, flat := segsOf(sim.NewRNG(22), 64, 64, 64, 64, 64, 64)
	out := make([]byte, len(flat))
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Isendv(p, 9, iov).Wait(p); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		if err := e1.Gate(0).Irecvv(p, 9, [][]byte{out}).Wait(p); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if !bytes.Equal(out, flat) {
		t.Fatal("payload corrupted")
	}
	if n := rec.Count(trace.Submit); n != 1 {
		t.Errorf("Submit events = %d, want 1 (one wrapper for the whole iovec)", n)
	}
	if n := rec.Count(trace.Depart); n != 1 {
		t.Errorf("Depart events = %d, want 1 (all segments in one physical packet)", n)
	}
	st := e0.Stats()
	if st.Submitted != 1 || st.OutputPackets != 1 {
		t.Errorf("stats %d wrappers / %d packets, want 1/1", st.Submitted, st.OutputPackets)
	}
}

func TestIsendvRendezvousScattersZeroCopy(t *testing.T) {
	// A vector send above the threshold: the body must stream via
	// rendezvous straight out of the scattered segments and into the
	// receiver's scattered segments.
	w, e0, e1 := testWorld(t, DefaultOptions())
	iov, flat := segsOf(sim.NewRNG(23), 64, 200<<10, 64, 100<<10)
	out := [][]byte{make([]byte, 150<<10), make([]byte, len(flat)-150<<10)}
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Isendv(p, 5, iov).Wait(p); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		req := e1.Gate(0).Irecvv(p, 5, out)
		if err := req.Wait(p); err != nil {
			t.Error(err)
		}
		if req.N() != len(flat) {
			t.Errorf("received %d, want %d", req.N(), len(flat))
		}
	})
	run(t, w)
	got := append(append([]byte(nil), out[0]...), out[1]...)
	if !bytes.Equal(got, flat) {
		t.Fatal("rendezvous vector body corrupted")
	}
	st := e0.Stats()
	if st.RdvStarted != 1 || st.RdvCompleted != 1 {
		t.Errorf("rdv stats %d/%d, want 1/1", st.RdvStarted, st.RdvCompleted)
	}
	if st.BodyBytes != int64(len(flat)) {
		t.Errorf("BodyBytes = %d, want %d", st.BodyBytes, len(flat))
	}
}

func TestIsendvRendezvousOverEveryProfile(t *testing.T) {
	// The chunked (non-RDMA) body path must respect each rail's gather
	// capacity even when the body is an iovec of many segments.
	for _, prof := range simnet.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			w, e0, e1 := testWorld(t, DefaultOptions(), prof)
			sizes := make([]int, 64)
			for i := range sizes {
				sizes[i] = prof.RdvThreshold/16 + i
			}
			iov, flat := segsOf(sim.NewRNG(24), sizes...)
			out := make([]byte, len(flat))
			w.Spawn("send", func(p *sim.Proc) {
				if err := e0.Gate(1).Isendv(p, 5, iov).Wait(p); err != nil {
					t.Error(err)
				}
			})
			w.Spawn("recv", func(p *sim.Proc) {
				if err := e1.Gate(0).Irecvv(p, 5, [][]byte{out}).Wait(p); err != nil {
					t.Error(err)
				}
			})
			run(t, w)
			if !bytes.Equal(out, flat) {
				t.Fatalf("vector body corrupted on %s", prof.Name)
			}
		})
	}
}

func TestIsendvMoreSegmentsThanGatherCapacity(t *testing.T) {
	// An eager vector wrapper with more segments than any rail can gather
	// is flattened at submission (software gather) instead of failing —
	// and the memcpy is charged to the submitting process, like the
	// transfer-layer bounce buffers charge theirs.
	w, e0, e1 := testWorld(t, DefaultOptions())
	sizes := make([]int, 100) // MX gathers 32 segments
	for i := range sizes {
		sizes[i] = 8
	}
	iov, flat := segsOf(sim.NewRNG(25), sizes...)
	out := make([]byte, len(flat))
	w.Spawn("send", func(p *sim.Proc) {
		before := p.Now()
		req := e0.Gate(1).Isendv(p, 1, iov)
		charged := p.Now() - before
		// SubmitOverhead (150ns) plus the 800B memcpy at the host's
		// 1.2 GB/s (~667ns).
		if charged < 500*sim.Nanosecond {
			t.Errorf("submit charged only %v; the flatten memcpy went free", charged)
		}
		if err := req.Wait(p); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		if err := e1.Gate(0).Irecvv(p, 1, [][]byte{out}).Wait(p); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if !bytes.Equal(out, flat) {
		t.Error("flattened vector payload corrupted")
	}
}

func TestIsendvWideWrapperWaitsForTheWideRail(t *testing.T) {
	// Two rails with different gather capacities (MX 32, Quadrics 16): a
	// vector wrapper with ~20 segments must NOT be flattened (MX can
	// gather it) and must never be elected onto the narrow rail — even
	// when the narrow rail idles first.
	for _, strat := range []string{"aggreg", "default", "prio"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Strategy = strat
			w, e0, e1 := testWorld(t, opts, simnet.MX10G(), simnet.QsNetII())
			sizes := make([]int, 20)
			for i := range sizes {
				sizes[i] = 16
			}
			iov, flat := segsOf(sim.NewRNG(27), sizes...)
			out := make([]byte, len(flat))
			w.Spawn("send", func(p *sim.Proc) {
				// Occupy the MX rail so the Quadrics rail idles first and
				// gets offered the wide wrapper.
				e0.Gate(1).Isend(p, 1, make([]byte, 4<<10), OnRail(0))
				if err := e0.Gate(1).Isendv(p, 2, iov).Wait(p); err != nil {
					t.Error(err)
				}
			})
			w.Spawn("recv", func(p *sim.Proc) {
				r1 := e1.Gate(0).Irecv(p, 1, make([]byte, 4<<10))
				r2 := e1.Gate(0).Irecvv(p, 2, [][]byte{out})
				if err := WaitAll(p, r1, r2); err != nil {
					t.Error(err)
				}
			})
			run(t, w)
			if !bytes.Equal(out, flat) {
				t.Fatal("wide vector payload corrupted")
			}
			st := e0.Stats()
			// All payload rode the MX rail: the pinned occupier plus the
			// wide wrapper the Quadrics rail had to leave alone.
			if st.PerDriverBytes[1] != 0 {
				t.Errorf("narrow rail carried %d bytes of a wrapper it cannot gather", st.PerDriverBytes[1])
			}
			if st.PerDriverBytes[0] != int64(4<<10+len(flat)) {
				t.Errorf("wide rail carried %d bytes, want %d", st.PerDriverBytes[0], 4<<10+len(flat))
			}
		})
	}
}

func TestIrecvvTruncation(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	iov, flat := segsOf(sim.NewRNG(26), 40, 40)
	out := [][]byte{make([]byte, 16), make([]byte, 16)}
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isendv(p, 2, iov)
	})
	w.Spawn("recv", func(p *sim.Proc) {
		req := e1.Gate(0).Irecvv(p, 2, out)
		if err := req.Wait(p); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
		if req.N() != 32 {
			t.Errorf("N = %d, want the landing capacity 32", req.N())
		}
	})
	run(t, w)
	if !bytes.Equal(out[0], flat[:16]) || !bytes.Equal(out[1], flat[16:32]) {
		t.Error("truncated scatter filled the wrong bytes")
	}
}

func TestIovecHelpers(t *testing.T) {
	v := iovec{[]byte("abc"), nil, []byte("defgh"), []byte("i")}
	if v.total() != 9 {
		t.Errorf("total = %d, want 9", v.total())
	}
	if v.segCount() != 3 {
		t.Errorf("segCount = %d, want 3 (nil segment skipped)", v.segCount())
	}
	if got := string(v.flatten()); got != "abcdefghi" {
		t.Errorf("flatten = %q", got)
	}
	if got := string(iovec.flatten(v.appendRange(nil, 2, 4))); got != "cdef" {
		t.Errorf("appendRange(nil,2,4) = %q, want cdef", got)
	}
	if got := v.appendRange(iovec{[]byte("z")}, 8, 1); len(got) != 2 || string(got[1]) != "i" {
		t.Errorf("appendRange(z,8,1) = %q, want [z i]", got)
	}
	if n := v.capSegs(0, 9, 2); n != 8 {
		t.Errorf("capSegs(0,9,2) = %d, want 8 (abc + defgh)", n)
	}
	if n := v.capSegs(1, 3, 1); n != 2 {
		t.Errorf("capSegs(1,3,1) = %d, want 2 (bc)", n)
	}
	dst := iovec{make([]byte, 4), make([]byte, 4)}
	if n := dst.copyAt(2, []byte("XYZW")); n != 4 {
		t.Errorf("copyAt placed %d, want 4", n)
	}
	if got := string(dst.flatten()); got != "\x00\x00XYZW\x00\x00" {
		t.Errorf("copyAt result %q", got)
	}
	if n := dst.copyAt(6, []byte("0123")); n != 2 {
		t.Errorf("copyAt over the end placed %d, want 2", n)
	}
}
