package madmpi

import "fmt"

// Derived datatypes (§3.4, §5.3). A datatype describes a memory layout:
// possibly non-contiguous blocks relative to a base address. MAD-MPI does
// not pack: it flattens the layout into segments and posts one engine
// request per segment, letting the scheduler aggregate the small blocks
// (with the rendezvous requests of the large ones) and keep the large
// blocks zero-copy.

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
	// append adds the segments of one element, placed at base, to out.
	append(base int, out []segment) []segment
	// String names the type for diagnostics.
	String() string
}

// Byte is the predefined basic type every layout is built from.
var Byte Datatype = basic{1}

type basic struct{ n int }

func (b basic) Size() int   { return b.n }
func (b basic) Extent() int { return b.n }
func (b basic) append(base int, out []segment) []segment {
	return append(out, segment{Offset: base, Len: b.n})
}
func (b basic) String() string { return fmt.Sprintf("basic(%d)", b.n) }

// Contiguous builds count consecutive elements of old (MPI_Type_contiguous).
func Contiguous(count int, old Datatype) Datatype {
	mustPositive("Contiguous count", count)
	return &contiguous{count: count, old: old}
}

type contiguous struct {
	count int
	old   Datatype
}

func (t *contiguous) Size() int   { return t.count * t.old.Size() }
func (t *contiguous) Extent() int { return t.count * t.old.Extent() }
func (t *contiguous) append(base int, out []segment) []segment {
	return appendRun(t.old, t.count, base, out)
}
func (t *contiguous) String() string { return fmt.Sprintf("contiguous(%d, %s)", t.count, t.old) }

// Vector builds count blocks of blocklen elements, with a stride given in
// elements of old (MPI_Type_vector).
func Vector(count, blocklen, stride int, old Datatype) Datatype {
	mustPositive("Vector count", count)
	mustPositive("Vector blocklen", blocklen)
	return &hvector{count: count, blocklen: blocklen, strideBytes: stride * old.Extent(), old: old}
}

// Hvector is Vector with the stride in bytes (MPI_Type_hvector).
func Hvector(count, blocklen, strideBytes int, old Datatype) Datatype {
	mustPositive("Hvector count", count)
	mustPositive("Hvector blocklen", blocklen)
	return &hvector{count: count, blocklen: blocklen, strideBytes: strideBytes, old: old}
}

type hvector struct {
	count, blocklen, strideBytes int
	old                          Datatype
}

func (t *hvector) Size() int { return t.count * t.blocklen * t.old.Size() }
func (t *hvector) Extent() int {
	last := (t.count-1)*t.strideBytes + t.blocklen*t.old.Extent()
	if t.strideBytes*t.count > last {
		return t.strideBytes * t.count
	}
	return last
}
func (t *hvector) append(base int, out []segment) []segment {
	for i := 0; i < t.count; i++ {
		out = appendRun(t.old, t.blocklen, base+i*t.strideBytes, out)
	}
	return out
}
func (t *hvector) String() string {
	return fmt.Sprintf("hvector(%d x %d, stride %dB, %s)", t.count, t.blocklen, t.strideBytes, t.old)
}

// Indexed builds blocks of varying lengths at varying displacements, both
// in elements of old (MPI_Type_indexed). This is the datatype of the
// paper's Figure 4 experiment.
func Indexed(blocklens, displs []int, old Datatype) Datatype {
	if len(blocklens) != len(displs) {
		panic("madmpi: Indexed blocklens and displs lengths differ")
	}
	bytesLens := make([]int, len(blocklens))
	bytesDispls := make([]int, len(displs))
	for i := range blocklens {
		mustPositive("Indexed blocklen", blocklens[i])
		bytesLens[i] = blocklens[i] * old.Size()
		bytesDispls[i] = displs[i] * old.Extent()
	}
	return &hindexed{lens: bytesLens, displs: bytesDispls, old: old, elems: blocklens}
}

// Hindexed is Indexed with byte displacements (MPI_Type_hindexed).
func Hindexed(blocklens []int, byteDispls []int, old Datatype) Datatype {
	if len(blocklens) != len(byteDispls) {
		panic("madmpi: Hindexed blocklens and displs lengths differ")
	}
	bytesLens := make([]int, len(blocklens))
	for i := range blocklens {
		mustPositive("Hindexed blocklen", blocklens[i])
		bytesLens[i] = blocklens[i] * old.Size()
	}
	return &hindexed{lens: bytesLens, displs: append([]int(nil), byteDispls...), old: old, elems: blocklens}
}

type hindexed struct {
	lens   []int // block lengths in bytes
	displs []int // block displacements in bytes
	elems  []int // block lengths in elements (for per-element walks)
	old    Datatype
}

func (t *hindexed) Size() int {
	n := 0
	for _, l := range t.lens {
		n += l
	}
	return n
}
func (t *hindexed) Extent() int {
	max := 0
	for i := range t.lens {
		end := t.displs[i] + t.elems[i]*t.old.Extent()
		if end > max {
			max = end
		}
	}
	return max
}
func (t *hindexed) append(base int, out []segment) []segment {
	for i := range t.lens {
		out = appendRun(t.old, t.elems[i], base+t.displs[i], out)
	}
	return out
}
func (t *hindexed) String() string { return fmt.Sprintf("hindexed(%d blocks, %s)", len(t.lens), t.old) }

// Struct combines heterogeneous types at byte displacements
// (MPI_Type_create_struct).
func Struct(blocklens []int, byteDispls []int, types []Datatype) Datatype {
	if len(blocklens) != len(byteDispls) || len(blocklens) != len(types) {
		panic("madmpi: Struct argument lengths differ")
	}
	for _, b := range blocklens {
		mustPositive("Struct blocklen", b)
	}
	return &structType{
		lens:   append([]int(nil), blocklens...),
		displs: append([]int(nil), byteDispls...),
		types:  append([]Datatype(nil), types...),
	}
}

type structType struct {
	lens   []int
	displs []int
	types  []Datatype
}

func (t *structType) Size() int {
	n := 0
	for i := range t.types {
		n += t.lens[i] * t.types[i].Size()
	}
	return n
}
func (t *structType) Extent() int {
	max := 0
	for i := range t.types {
		end := t.displs[i] + t.lens[i]*t.types[i].Extent()
		if end > max {
			max = end
		}
	}
	return max
}
func (t *structType) append(base int, out []segment) []segment {
	for i := range t.types {
		out = appendRun(t.types[i], t.lens[i], base+t.displs[i], out)
	}
	return out
}
func (t *structType) String() string { return fmt.Sprintf("struct(%d fields)", len(t.types)) }

// Resized overrides a datatype's extent (MPI_Type_create_resized),
// controlling where consecutive elements start — e.g. to leave gaps
// between the elements of an indexed type.
func Resized(old Datatype, extent int) Datatype {
	if extent < old.Extent() {
		panic(fmt.Sprintf("madmpi: Resized extent %d below the natural extent %d", extent, old.Extent()))
	}
	return &resized{old: old, extent: extent}
}

type resized struct {
	old    Datatype
	extent int
}

func (t *resized) Size() int   { return t.old.Size() }
func (t *resized) Extent() int { return t.extent }
func (t *resized) append(base int, out []segment) []segment {
	return t.old.append(base, out)
}
func (t *resized) String() string { return fmt.Sprintf("resized(%d, %s)", t.extent, t.old) }

// appendRun appends count consecutive elements of t starting at base.
// Dense types — whose elements tile their extent with no holes — take the
// fast path: one segment for the whole run, however many bytes it spans
// (the walk stays proportional to the number of *blocks*, not bytes).
func appendRun(t Datatype, count, base int, out []segment) []segment {
	if t.Size() == t.Extent() {
		return append(out, segment{Offset: base, Len: count * t.Size()})
	}
	for i := 0; i < count; i++ {
		out = t.append(base+i*t.Extent(), out)
	}
	return out
}

// flatten expands count elements of a datatype into contiguous segments,
// coalescing adjacent blocks (so Contiguous(n, Byte) flattens to a single
// segment, like MPICH's dataloop optimizer would).
func flatten(t Datatype, count int) []segment {
	raw := appendRun(t, count, 0, nil)
	if len(raw) == 0 {
		return nil
	}
	out := raw[:1]
	for _, s := range raw[1:] {
		last := &out[len(out)-1]
		if s.Offset == last.Offset+last.Len {
			last.Len += s.Len
			continue
		}
		out = append(out, s)
	}
	return out
}

func mustPositive(what string, v int) {
	if v <= 0 {
		panic(fmt.Sprintf("madmpi: %s must be positive, got %d", what, v))
	}
}
