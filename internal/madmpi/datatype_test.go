package madmpi

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"nmad/internal/sim"
)

// typeGen builds random nested datatypes from every constructor and,
// beside each, its type map: the byte offsets of one element in order,
// expanded byte by byte from the MPI definitions. It is the oracle the
// stored layouts are checked against. pick returns a choice in [0, n).
type typeGen struct{ pick func(n int) int }

// gen returns a datatype nested at most depth constructors deep, with
// counts and block lengths 1-3, and its type map.
func (g typeGen) gen(depth int) (Datatype, []int) {
	if depth == 0 {
		return Byte, []int{0}
	}
	count := func() int { return 1 + g.pick(3) }
	lists := func(lo, n int) (lens, displs []int) {
		for range count() {
			lens, displs = append(lens, count()), append(displs, lo+g.pick(n))
		}
		return lens, displs
	}
	switch k := g.pick(8); k {
	case 1:
		n := count()
		old, m := g.gen(depth - 1)
		return Contiguous(n, old), repeatMap(m, n, old.Extent(), 0)
	case 2, 3:
		n, blocklen := count(), count()
		old, m := g.gen(depth - 1)
		var dt Datatype
		stride := g.pick(7) - 3
		if k == 2 {
			dt, stride = Vector(n, blocklen, stride, old), stride*old.Extent()
		} else {
			stride *= 3
			dt = Hvector(n, blocklen, stride, old)
		}
		var tm []int
		for i := range n {
			tm = append(tm, repeatMap(m, blocklen, old.Extent(), i*stride)...)
		}
		return dt, tm
	case 4, 5:
		old, m := g.gen(depth - 1)
		lens, displs := lists(-2, 8)
		var dt Datatype
		unit := 1
		if k == 4 {
			dt, unit = Indexed(lens, displs, old), old.Extent()
		} else {
			dt = Hindexed(lens, displs, old)
		}
		var tm []int
		for i, n := range lens {
			tm = append(tm, repeatMap(m, n, old.Extent(), displs[i]*unit)...)
		}
		return dt, tm
	case 6:
		lens, displs := lists(-4, 20)
		var types []Datatype
		var tm []int
		for i, n := range lens {
			old, m := g.gen(depth - 1)
			types = append(types, old)
			tm = append(tm, repeatMap(m, n, old.Extent(), displs[i])...)
		}
		return Struct(lens, displs, types), tm
	case 7:
		old, m := g.gen(depth - 1)
		return Resized(old, old.Extent()+g.pick(4)), m
	}
	return Byte, []int{0}
}

// repeatMap is the type map of n elements of a type whose map is m and
// whose extent is ext, the first element at base.
func repeatMap(m []int, n, ext, base int) []int {
	var out []int
	for i := range n {
		for _, o := range m {
			out = append(out, base+i*ext+o)
		}
	}
	return out
}

// mergeMap run-length merges a type map into blocks: an offset one past
// the previous one extends its block.
func mergeMap(offs []int) []segment {
	var out []segment
	for _, o := range offs {
		if n := len(out); n > 0 && out[n-1].Offset+out[n-1].Len == o {
			out[n-1].Len++
			continue
		}
		out = append(out, segment{o, 1})
	}
	return out
}

// checkLayout holds count elements of dt, whose type map is tm, to the
// oracle: flatten gives the merged map, and iovec over a buflen-byte
// buffer either gathers exactly the map's bytes or, when a block falls
// outside the buffer or count is negative, fails naming the first such
// block.
func checkLayout(t *testing.T, dt Datatype, tm []int, count, buflen int) {
	t.Helper()
	if dt.Size() != len(tm) {
		t.Fatalf("%v: size %d, type map has %d bytes", dt, dt.Size(), len(tm))
	}
	offs := repeatMap(tm, count, dt.Extent(), 0)
	want := mergeMap(offs)
	if got := flatten(dt, count); !slices.Equal(got, want) {
		t.Fatalf("%v x %d: flatten = %v, type map gives %v", dt, count, got, want)
	}
	base := make([]byte, buflen)
	for i := range base {
		base[i] = byte(i)
	}
	iov, err := iovec(nil, base, dt, count)
	wantErr := ""
	if count < 0 {
		wantErr = fmt.Sprintf("madmpi: datatype count %d is negative", count)
	}
	for _, s := range want {
		if wantErr == "" && (s.Offset < 0 || s.Offset+s.Len > buflen) {
			wantErr = fmt.Sprintf("madmpi: datatype segment [%d,%d) outside the %d-byte buffer", s.Offset, s.Offset+s.Len, buflen)
		}
	}
	if wantErr != "" {
		if err == nil || err.Error() != wantErr {
			t.Fatalf("%v x %d in %d bytes: iovec error %v, want %q", dt, count, buflen, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v x %d in %d bytes: %v", dt, count, buflen, err)
	}
	var wantBytes []byte
	for _, o := range offs {
		wantBytes = append(wantBytes, base[o])
	}
	if got := bytes.Join(iov, nil); !bytes.Equal(got, wantBytes) {
		t.Fatalf("%v x %d: gathered %v, type map gives %v", dt, count, got, wantBytes)
	}
}

// TestFlattenFollowsTypeMap holds flattening to the type map, whatever
// the block order: a type whose size equals its extent is one solid
// block only when its blocks say so. Three such types once flattened to
// one block — out of order, overlapping, and reaching below the base —
// and the third read bytes outside its type. A negative count is an
// error.
func TestFlattenFollowsTypeMap(t *testing.T) {
	swapped := Hindexed([]int{2, 2}, []int{2, 0}, Byte)
	for _, c := range []struct {
		dt   Datatype
		want []segment
	}{
		{swapped, []segment{{2, 2}, {0, 2}}},
		{Resized(swapped, 6), []segment{{2, 2}, {0, 2}}},
		{Hindexed([]int{1, 1, 1}, []int{0, 2, 2}, Byte), []segment{{0, 1}, {2, 1}, {2, 1}}},
		{Hindexed([]int{1, 2}, []int{-1, 1}, Byte), []segment{{-1, 1}, {1, 2}}},
	} {
		if got := flatten(c.dt, 1); !slices.Equal(got, c.want) {
			t.Errorf("flatten(%v, 1) = %v, want %v", c.dt, got, c.want)
		}
	}
	below := Hindexed([]int{1, 2}, []int{-1, 1}, Byte)
	if _, err := iovec(nil, make([]byte, 4), below, 1); err == nil ||
		err.Error() != "madmpi: datatype segment [-1,0) outside the 4-byte buffer" {
		t.Errorf("a block below the base: iovec error %v", err)
	}
	if _, err := iovec(nil, make([]byte, 8), Contiguous(4, Byte), -1); err == nil { // once a slice panic
		t.Error("a negative count must fail")
	}

	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			if err := c.SendTyped(p, []byte{0, 1, 2, 3}, swapped, 1, 1, 0); err != nil {
				t.Error(err)
			}
			return
		}
		got := make([]byte, 4)
		if _, err := c.RecvTyped(p, got, Contiguous(4, Byte), 1, 0, 0); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, []byte{2, 3, 0, 1}) {
			t.Errorf("received %v, want the type map's order [2 3 0 1]", got)
		}
	})

	rng := sim.NewRNG(1)
	g := typeGen{pick: rng.Intn}
	for range 3000 {
		dt, tm := g.gen(3)
		for count := range 4 {
			checkLayout(t, dt, tm, count, rng.Intn(8+2*max(dt.Extent(), 0)*count))
		}
	}
}

// FuzzDatatypeLayout decodes a constructor tree from its input with the
// differential test's generator, then holds flatten to the type map and
// iovec to the buffer for the fuzzed count and buffer length: an error or
// exactly the map's bytes, never a panic.
func FuzzDatatypeLayout(f *testing.F) {
	f.Add([]byte{5, 1, 1, 1, 2, 1, 0, 0}, int8(1), uint16(4))
	f.Add([]byte{6, 2, 0, 1, 3, 2, 7, 1, 2}, int8(3), uint16(64))
	f.Add([]byte{2, 2, 2, 0, 1, 4, 4, 0, 1}, int8(-1), uint16(16))
	f.Fuzz(func(t *testing.T, tree []byte, count int8, buflen uint16) {
		g := typeGen{pick: func(n int) int {
			if len(tree) == 0 {
				return 0
			}
			b := tree[0]
			tree = tree[1:]
			return int(b) % n
		}}
		dt, tm := g.gen(3)
		checkLayout(t, dt, tm, int(count), int(buflen))
	})
}

// TestTypedCallPastItsBufferBuildsNothing: a typed call whose count runs
// far past its buffer fails at the first merged block outside it, with
// the error of the bounded call and about the same bytes allocated,
// however many elements follow that block. Bytes, not objects: the race
// detector's runtime adds objects of its own now and then, while a list
// built for every element would cost megabytes at count 65 536.
func TestTypedCallPastItsBufferBuildsNothing(t *testing.T) {
	dt := Vector(4, 8, 16, Byte)
	base := make([]byte, 64)
	const want = "madmpi: datatype segment [64,72) outside the 64-byte buffer"
	const runs, slack = 10, 4 << 10
	perCall := map[int]uint64{}
	for _, count := range []int{2, 65536} {
		if _, err := iovec(nil, base, dt, count); err == nil || err.Error() != want {
			t.Fatalf("%v x %d in 64 bytes: iovec error %v, want %q", dt, count, err, want)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			iovec(nil, base, dt, count)
		}
		runtime.ReadMemStats(&m1)
		perCall[count] = (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	if perCall[65536] > perCall[2]+slack {
		t.Errorf("a failing typed call allocates %d B at count 65536, %d B at count 2: it builds the blocks past the bad one",
			perCall[65536], perCall[2])
	}
}

// TestTypedReceivesKeepTheirLists: the engine reads a typed receive's
// gather list until the receive completes, so two typed receives posted
// side by side, and a typed send made while they wait, each scatter or
// gather through a list of their own. Over the rounds the layouts swap,
// so a list that went back at Wait serves a receive of the other layout.
func TestTypedReceivesKeepTheirLists(t *testing.T) {
	layouts := [2]Datatype{
		Vector(4, 2, 8, Byte),
		Hindexed([]int{3, 1, 2}, []int{0, 10, 20}, Byte),
	}
	// scattered is what a typed receive of dt leaves in a zeroed buffer
	// of n bytes when the payload is msg.
	scattered := func(dt Datatype, n int, msg []byte) []byte {
		out := make([]byte, n)
		for _, s := range flatten(dt, 1) {
			msg = msg[copy(out[s.Offset:s.Offset+s.Len], msg):]
		}
		return out
	}
	payload := func(tag, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(tag<<5 + i + 1)
		}
		return b
	}
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		for round := range 4 {
			first, second := layouts[round%2], layouts[1-round%2]
			if m.Rank() == 0 {
				if _, err := c.RecvTyped(p, make([]byte, 32), first, 1, 1, 9); err != nil {
					t.Fatal(err)
				}
				for i, dt := range []Datatype{first, second} {
					if err := c.Send(p, payload(i+1, dt.Size()), 1, i+1); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			bufs := [2][]byte{make([]byte, 32), make([]byte, 32)}
			r1 := c.IrecvTyped(p, bufs[0], first, 1, 0, 1)
			r2 := c.IrecvTyped(p, bufs[1], second, 1, 0, 2)
			if err := c.SendTyped(p, make([]byte, 32), first, 1, 0, 9); err != nil {
				t.Fatal(err)
			}
			for i, r := range []*Request{r1, r2} {
				dt := [2]Datatype{first, second}[i]
				if err := r.Wait(p); err != nil {
					t.Fatal(err)
				}
				if want := scattered(dt, 32, payload(i+1, dt.Size())); !bytes.Equal(bufs[i], want) {
					t.Errorf("round %d, receive %d of %v: buffer %v, want %v", round, i+1, dt, bufs[i], want)
				}
			}
		}
	})
}

// TestTypedSendsOfOneRankOverlap: a typed send's gather list is its
// MPI's scratch only while no other process of the rank holds it, so two
// processes of one rank whose typed sends wait out their submit overhead
// together each gather their own layout, with the scratch warm from the
// rounds before.
func TestTypedSendsOfOneRankOverlap(t *testing.T) {
	// The second process's list is the longer, so the scratch it leaves
	// fits the first process's list of the next round.
	layouts := []Datatype{Hindexed([]int{3, 1, 2}, []int{0, 10, 20}, Byte), Vector(4, 2, 8, Byte)}
	src := make([]byte, 32)
	for i := range src {
		src[i] = byte(i + 1)
	}
	const rounds = 3
	job(t, 2, func(p *sim.Proc, m *MPI) {
		c := m.CommWorld()
		if m.Rank() == 0 {
			for range rounds {
				done := false
				p.World().Spawn("second", func(q *sim.Proc) {
					if err := c.SendTyped(q, src, layouts[1], 1, 1, 2); err != nil {
						t.Error(err)
					}
					done = true
				})
				if err := c.SendTyped(p, src, layouts[0], 1, 1, 1); err != nil {
					t.Error(err)
				}
				for !done {
					p.Sleep(sim.Microsecond)
				}
			}
			return
		}
		for round := range rounds {
			for i, dt := range layouts {
				var want []byte
				for _, s := range flatten(dt, 1) {
					want = append(want, src[s.Offset:s.Offset+s.Len]...)
				}
				got := make([]byte, 32)
				st, err := c.Recv(p, got, 0, i+1)
				if err != nil || !bytes.Equal(got[:st.Count], want) {
					t.Errorf("round %d, typed send %d of %v: received %v (%v), want %v", round, i+1, dt, got[:st.Count], err, want)
				}
			}
		}
	})
}
