package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"nmad/internal/sim"
)

// The decoder: the generic tree parseYAML returns, laid over the schema
// structs by reflection. A mapping fills a struct, a sequence a slice, a
// scalar a field of the matching kind; what a key is called, which keys a
// mapping accepts and what the unknown-field message lists all come from
// the struct definition (structKeys), so the format has no second
// description to keep in step.

// structKeys is the key table of one schema struct.
type structKeys struct {
	keys  []string // in declaration order
	index []int    // index[i] is the struct field keys[i] names
}

// schema holds the key table of every struct reachable from Scenario,
// built once: Parse only reads it.
var schema = map[reflect.Type]*structKeys{}

func init() { learn(reflect.TypeFor[Scenario]()) }

// learn records t's key table and those of the structs below it. A field's
// key is its yaml tag, else its json name, else snake of its Go name; `yaml:"-"` closes a field of a shared struct to scenario files.
func learn(t reflect.Type) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || schema[t] != nil {
		return
	}
	sk := &structKeys{}
	schema[t] = sk
	for i := range t.NumField() {
		f := t.Field(i)
		key := f.Tag.Get("yaml")
		if key == "" {
			key, _, _ = strings.Cut(f.Tag.Get("json"), ",")
		}
		if key == "" {
			key = snake(f.Name)
		}
		if key == "-" || !f.IsExported() {
			continue
		}
		sk.keys = append(sk.keys, key)
		sk.index = append(sk.index, i)
		learn(f.Type)
	}
}

// snake is the one Go-identifier → snake_case mapping scenario files are
// spelled in — the keys of the schema structs and the assertion fields
// derived from core.Stats and simnet.FaultStats: word boundaries open
// before an upper-case letter that follows a lower-case letter or digit
// ("OutputPackets" → "output_packets"), and before the last upper-case
// letter of an acronym run that is followed by a lower-case letter
// ("RDMABytes" → "rdma_bytes").
func snake(ident string) string {
	var b strings.Builder
	runes := []rune(ident)
	for i, r := range runes {
		if isUpper(r) {
			boundary := false
			if i > 0 && !isUpper(runes[i-1]) {
				boundary = true // aB → a_b
			} else if i > 0 && i+1 < len(runes) && isUpper(runes[i-1]) && !isUpper(runes[i+1]) {
				boundary = true // ABc → a_bc (end of acronym run)
			}
			if boundary {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func isUpper(r rune) bool { return r >= 'A' && r <= 'Z' }

// decoder carries the position of the value being decoded as a stack of
// steps, rendered only when an error names it.
type decoder struct {
	at []step
}

// step is one level of a position: a mapping key, or (key == "") a
// sequence index.
type step struct {
	key string
	idx int
}

// errorf wraps ErrSchema with the full position: phases[0].nodes[1].
func (d *decoder) errorf(format string, args ...any) error {
	var pos strings.Builder
	for _, s := range d.at {
		switch {
		case s.key == "":
			fmt.Fprintf(&pos, "[%d]", s.idx)
		case pos.Len() > 0:
			pos.WriteString("." + s.key)
		default:
			pos.WriteString(s.key)
		}
	}
	if pos.Len() == 0 {
		pos.WriteString("top level")
	}
	return fmt.Errorf("%w: %s: %s", ErrSchema, pos.String(), fmt.Sprintf(format, args...))
}

var (
	timeType     = reflect.TypeFor[sim.Time]()
	selectorType = reflect.TypeFor[Selector]()
)

// decode lays raw over dst. What dst holds beforehand is the default: an
// absent or null key, and an empty sequence, leave it alone. Every
// narrowing from the tree's int64 happens here.
func (d *decoder) decode(dst reflect.Value, raw any) error {
	switch dst.Type() {
	case timeType:
		// Plain numbers are rejected: a bare "100" is ambiguous and has
		// bitten every timeline format that allowed it.
		s, ok := raw.(string)
		if !ok {
			return d.errorf("expected a duration string like \"250us\", got %v", raw)
		}
		t, err := parseTime(s)
		if err != nil {
			return d.errorf("%v", err)
		}
		dst.SetInt(int64(t))
		return nil
	case selectorType:
		switch v := raw.(type) {
		case int64:
			dst.SetString(strconv.FormatInt(v, 10))
		case string:
			dst.SetString(v)
		default:
			return d.errorf("expected an id or a selector word, got %v", raw)
		}
		return nil
	}

	switch dst.Kind() {
	case reflect.String:
		s, ok := raw.(string)
		if !ok {
			return d.errorf("expected a string, got %T", raw)
		}
		dst.SetString(s)
	case reflect.Bool:
		b, ok := raw.(bool)
		if !ok {
			return d.errorf("expected true/false, got %v", raw)
		}
		dst.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, ok := raw.(int64)
		if !ok {
			return d.errorf("expected an integer, got %v", raw)
		}
		switch {
		case dst.CanInt() && !dst.OverflowInt(n):
			dst.SetInt(n)
		case dst.CanUint() && n >= 0 && !dst.OverflowUint(uint64(n)):
			dst.SetUint(uint64(n))
		default:
			return d.errorf("%d does not fit an %s", n, dst.Kind())
		}
	case reflect.Float64:
		switch n := raw.(type) {
		case float64:
			dst.SetFloat(n)
		case int64:
			dst.SetFloat(float64(n))
		default:
			return d.errorf("expected a number, got %v", raw)
		}
	case reflect.Pointer:
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		return d.decode(dst.Elem(), raw)
	case reflect.Slice:
		items, ok := raw.([]any)
		if !ok {
			return d.errorf("expected a sequence")
		}
		if len(items) == 0 {
			return nil
		}
		elem := elemDefaults[dst.Type().Elem()]
		dst.Set(reflect.MakeSlice(dst.Type(), len(items), len(items)))
		for i, item := range items {
			if elem.IsValid() {
				dst.Index(i).Set(elem)
			}
			d.at = append(d.at, step{idx: i})
			if err := d.decode(dst.Index(i), item); err != nil {
				return err
			}
			d.at = d.at[:len(d.at)-1]
		}
	case reflect.Struct:
		m, ok := raw.(map[string]any)
		if !ok {
			return d.errorf("expected a mapping")
		}
		sk := schema[dst.Type()]
		known := 0
		for i, key := range sk.keys {
			item, ok := m[key]
			if !ok {
				continue
			}
			known++
			if item == nil {
				continue
			}
			d.at = append(d.at, step{key: key})
			if err := d.decode(dst.Field(sk.index[i]), item); err != nil {
				return err
			}
			d.at = d.at[:len(d.at)-1]
		}
		if known < len(m) {
			// A typo'd key must not silently deconfigure a scenario. Sorted,
			// so the reported field is the same on every run.
			for _, key := range sortedKeys(m) {
				if !slices.Contains(sk.keys, key) {
					return d.errorf("unknown field %q (known: %s)", key, strings.Join(sk.keys, ", "))
				}
			}
		}
	default:
		return d.errorf("a %s has no scenario-file form", dst.Type())
	}
	return nil
}

// parseTime parses a virtual-time scalar: a non-negative decimal number
// immediately followed by one of ns, us, µs, ms, s.
func parseTime(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		mult   sim.Time
	}{
		{"ns", sim.Nanosecond},
		{"µs", sim.Microsecond},
		{"us", sim.Microsecond},
		{"ms", sim.Millisecond},
		{"s", sim.Second},
	}
	for _, u := range units {
		num, found := strings.CutSuffix(s, u.suffix)
		if !found || num == "" {
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		// float64(MaxInt64) is 2^63, the first value that does not fit.
		if ns := math.Round(f * float64(u.mult)); err == nil && f >= 0 && ns < math.MaxInt64 {
			return sim.Time(ns), nil
		}
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return 0, fmt.Errorf("bad duration %q (want <number><ns|us|ms|s>)", s)
}
