package madmpi

import "fmt"

// Derived datatypes (§3.4, §5.3). A datatype describes a memory layout:
// possibly non-contiguous blocks relative to a base address. MAD-MPI does
// not pack: it hands the blocks to the engine's vector path as one
// gather list, letting the scheduler aggregate the small blocks (with the
// rendezvous requests of the large ones) and keep the large blocks
// zero-copy.
//
// A type is flattened once, when it is built, as an MPI compiles it at
// MPI_Type_commit (MPICH's dataloops): every constructor stores one
// element's blocks in type-map order, touching blocks merged, and a typed
// call only repeats that list count times.

// segment is one contiguous block of a flattened datatype, relative to
// the message base address.
type segment struct {
	Offset int
	Len    int
}

// Datatype describes a memory layout. Implementations compose: any
// constructor accepts any Datatype as its element type.
type Datatype interface {
	// Size is the number of data bytes in one element of the type.
	Size() int
	// Extent is the memory span of one element: the offset at which a
	// second consecutive element starts.
	Extent() int
	// String names the type for diagnostics.
	String() string
	// layout is the type as its constructor flattened it.
	layout() *layout
}

// layout is every datatype: its size, extent and name, and the blocks of
// one element in type-map order, touching blocks merged.
type layout struct {
	size, extent int
	name         string
	blocks       []segment
}

func (l *layout) Size() int       { return l.size }
func (l *layout) Extent() int     { return l.extent }
func (l *layout) String() string  { return l.name }
func (l *layout) layout() *layout { return l }

// run appends count elements of l to out, the first at base and each
// next one Extent() further, merging touching blocks.
func (l *layout) run(out []segment, count, base int) []segment {
	w := blockWalk{l: l, count: count}
	for s, ok := w.next(); ok; s, ok = w.next() {
		out = appendMerged(out, segment{base + s.Offset, s.Len})
	}
	return out
}

// blockWalk yields the merged blocks of count elements of l, the first
// at offset 0 and each next one Extent() further, one at a time and
// without building the list, so a typed call stops at the first block
// outside its buffer. A dense layout — one block that fills its extent —
// makes the whole run one block, so construction and flattening stay
// proportional to blocks, not bytes.
type blockWalk struct {
	l        *layout
	count    int
	elem, at int // the next block: element elem, stored block at
}

func (w *blockWalk) next() (segment, bool) {
	l := w.l
	if w.elem >= w.count || len(l.blocks) == 0 {
		return segment{}, false
	}
	if len(l.blocks) == 1 && l.blocks[0] == (segment{0, l.extent}) {
		s := segment{w.elem * l.extent, (w.count - w.elem) * l.extent}
		w.elem = w.count
		return s, true
	}
	s := w.block()
	for w.step(); w.elem < w.count; w.step() {
		b := w.block()
		if s.Offset+s.Len != b.Offset {
			break
		}
		s.Len += b.Len
	}
	return s, true
}

func (w *blockWalk) block() segment {
	b := w.l.blocks[w.at]
	return segment{w.elem*w.l.extent + b.Offset, b.Len}
}

func (w *blockWalk) step() {
	if w.at++; w.at == len(w.l.blocks) {
		w.elem, w.at = w.elem+1, 0
	}
}

func appendMerged(out []segment, s segment) []segment {
	if n := len(out); n > 0 && out[n-1].Offset+out[n-1].Len == s.Offset {
		out[n-1].Len += s.Len
		return out
	}
	return append(out, s)
}

// flatten expands count elements of a datatype into contiguous segments,
// coalescing adjacent blocks (so Contiguous(n, Byte) flattens to a single
// segment, like MPICH's dataloop optimizer would).
func flatten(t Datatype, count int) []segment {
	return t.layout().run(nil, count, 0)
}

// Byte is the predefined basic type every layout is built from.
var Byte = basic(1)

// basic is a predefined type of n contiguous bytes.
func basic(n int) Datatype {
	return &layout{size: n, extent: n, name: fmt.Sprintf("basic(%d)", n), blocks: []segment{{0, n}}}
}

// Contiguous builds count consecutive elements of old (MPI_Type_contiguous).
func Contiguous(count int, old Datatype) Datatype {
	mustPositive("Contiguous count", count)
	o := old.layout()
	return &layout{size: count * o.size, extent: count * o.extent,
		name: fmt.Sprintf("contiguous(%d, %s)", count, o), blocks: o.run(nil, count, 0)}
}

// Vector builds count blocks of blocklen elements, with a stride given in
// elements of old (MPI_Type_vector).
func Vector(count, blocklen, stride int, old Datatype) Datatype {
	mustPositive("Vector count", count)
	mustPositive("Vector blocklen", blocklen)
	return hvector(count, blocklen, stride*old.Extent(), old.layout())
}

// Hvector is Vector with the stride in bytes (MPI_Type_hvector).
func Hvector(count, blocklen, strideBytes int, old Datatype) Datatype {
	mustPositive("Hvector count", count)
	mustPositive("Hvector blocklen", blocklen)
	return hvector(count, blocklen, strideBytes, old.layout())
}

func hvector(count, blocklen, stride int, o *layout) *layout {
	l := &layout{size: count * blocklen * o.size, extent: (count-1)*stride + blocklen*o.extent,
		name: fmt.Sprintf("hvector(%d x %d, stride %dB, %s)", count, blocklen, stride, o)}
	l.extent = max(l.extent, stride*count)
	for i := 0; i < count; i++ {
		l.blocks = o.run(l.blocks, blocklen, i*stride)
	}
	return l
}

// Indexed builds blocks of varying lengths at varying displacements, both
// in elements of old (MPI_Type_indexed). This is the datatype of the
// paper's Figure 4 experiment.
func Indexed(blocklens, displs []int, old Datatype) Datatype {
	if len(blocklens) != len(displs) {
		panic("madmpi: Indexed blocklens and displs lengths differ")
	}
	mustAllPositive("Indexed blocklen", blocklens)
	name := fmt.Sprintf("hindexed(%d blocks, %s)", len(blocklens), old)
	return fields(name, blocklens, displs, old.Extent(), func(int) Datatype { return old })
}

// Hindexed is Indexed with byte displacements (MPI_Type_hindexed).
func Hindexed(blocklens []int, byteDispls []int, old Datatype) Datatype {
	if len(blocklens) != len(byteDispls) {
		panic("madmpi: Hindexed blocklens and displs lengths differ")
	}
	mustAllPositive("Hindexed blocklen", blocklens)
	name := fmt.Sprintf("hindexed(%d blocks, %s)", len(blocklens), old)
	return fields(name, blocklens, byteDispls, 1, func(int) Datatype { return old })
}

// Struct combines heterogeneous types at byte displacements
// (MPI_Type_create_struct).
func Struct(blocklens []int, byteDispls []int, types []Datatype) Datatype {
	if len(blocklens) != len(byteDispls) || len(blocklens) != len(types) {
		panic("madmpi: Struct argument lengths differ")
	}
	mustAllPositive("Struct blocklen", blocklens)
	name := fmt.Sprintf("struct(%d fields)", len(types))
	return fields(name, blocklens, byteDispls, 1, func(i int) Datatype { return types[i] })
}

// fields lays out blocklens[i] elements of type at(i) at displacement
// displs[i]*unit bytes, in order: the type map of an indexed or struct
// type.
func fields(name string, blocklens, displs []int, unit int, at func(int) Datatype) *layout {
	l := &layout{name: name}
	for i, n := range blocklens {
		t := at(i).layout()
		l.size += n * t.size
		l.extent = max(l.extent, displs[i]*unit+n*t.extent)
		l.blocks = t.run(l.blocks, n, displs[i]*unit)
	}
	return l
}

// Resized overrides a datatype's extent (MPI_Type_create_resized),
// controlling where consecutive elements start — e.g. to leave gaps
// between the elements of an indexed type.
func Resized(old Datatype, extent int) Datatype {
	if extent < old.Extent() {
		panic(fmt.Sprintf("madmpi: Resized extent %d below the natural extent %d", extent, old.Extent()))
	}
	o := old.layout()
	return &layout{size: o.size, extent: extent, name: fmt.Sprintf("resized(%d, %s)", extent, o), blocks: o.blocks}
}

func mustAllPositive(what string, vs []int) {
	for _, v := range vs {
		mustPositive(what, v)
	}
}

func mustPositive(what string, v int) {
	if v <= 0 {
		panic(fmt.Sprintf("madmpi: %s must be positive, got %d", what, v))
	}
}
