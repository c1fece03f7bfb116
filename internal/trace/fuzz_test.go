package trace

import (
	"bytes"
	"testing"
)

// FuzzReadRecording hands arbitrary bytes to the recording reader — a
// recording is a file somebody else may have written. It must never
// panic, and what it accepts is a recording like any other: it
// serializes, and the serialized form reads back to the same header and
// ops (compared as bytes, the form replay and the golden test compare).
// The seeds under testdata/fuzz are the head of the golden recording of
// package replay and the header of a lossy two-rail run.
func FuzzReadRecording(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := rec.Write(&first); err != nil {
			t.Fatalf("an accepted recording does not serialize: %v", err)
		}
		back, err := ReadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a written recording does not read back: %v\n%s", err, first.Bytes())
		}
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if back.Len() != rec.Len() || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("write/read is not a fixed point:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
