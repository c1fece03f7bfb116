package scenario

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// plainByStrconv is plain without the shape check: strconv on every
// scalar, the reference the check must agree with.
func plainByStrconv(s string) any {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// The shape check only skips strconv where strconv would fail: over
// numbers of every form, near misses, names and durations, and every
// token of FuzzParse's seed documents, plain types each scalar exactly as
// strconv run unconditionally does.
func TestPlainAgreesWithStrconv(t *testing.T) {
	scalars := []string{
		"+5", "-0", "1e3", ".5", "0x1p-2", "1_000", "Inf", "-Infinity", "NaN", "nan", "250us",
		"ring-a", "cafe", "e", "-", "", `""`,
		"+nan", "+Inf", "infinit", "INFINITY", "0x", "0xG", "0X1P+2", "1.5.5", "5.", "1e400",
		"9223372036854775808", "-9223372036854775809", "0b101", "0o17", "1__0", "_1", "0.25ms", "3s",
	}
	for _, doc := range seedDocs(t) {
		scalars = append(scalars, strings.FieldsFunc(string(doc), func(r rune) bool {
			return strings.ContainsRune(" \t\n,[]:#", r)
		})...)
	}
	for _, s := range scalars {
		got, want := plain(s), plainByStrconv(s)
		if !sameScalar(got, want) {
			t.Errorf("plain(%q) = %#v, strconv types it %#v", s, got, want)
		}
	}
}

// sameScalar compares typed scalars, a NaN equal to a NaN.
func sameScalar(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && (fa == fb || math.IsNaN(fa) && math.IsNaN(fb))
	}
	return a == b
}
