package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHostileDocuments: files nobody would write by hand come back from
// Load as a typed error — no panic, no stack overflow, nothing built. The
// CI scenarios job runs `nmad-sim validate` over the same directory.
func TestHostileDocuments(t *testing.T) {
	want := map[string]error{
		"time-overflow":            ErrSchema,
		"size-2pow62":              ErrBadValue,
		"msgs-2pow62":              ErrBadValue,
		"volume-product":           ErrBadValue,
		"nodes-1e8":                ErrBadValue,
		"seed-negative":            ErrSchema,
		"ring-repeat":              ErrBadValue,
		"engine-no-recycle":        ErrSchema,
		"engine-submit-overhead":   ErrSchema,
		"engine-schedule-overhead": ErrSchema,
		"engine-strategy-impl":     ErrSchema,
		"rail-reorder-jitter":      ErrSchema,
		"event-outage-zero":        ErrBadValue,
		"cluster-outage-zero":      ErrBadValue,
	}
	files, err := filepath.Glob("testdata/hostile/*.yaml")
	if err != nil || len(files) != len(want) {
		t.Fatalf("testdata/hostile holds %d documents (err %v), the table %d", len(files), err, len(want))
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".yaml")
		sentinel, ok := want[name]
		if !ok {
			t.Errorf("%s: no expectation in the table", path)
			continue
		}
		if _, err := Load(path); !errors.Is(err, sentinel) {
			t.Errorf("Load(%s) = %v, want an error wrapping %v", path, err, sentinel)
		}
		// What Parse lets through, Run must refuse before it builds a
		// machine: the report is nil and the error is Validate's.
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sc, err := Parse(src); err == nil {
			if rep, err := Run(sc, Config{}); rep != nil || !errors.Is(err, sentinel) {
				t.Errorf("Run(%s) = %v, %v; want no report and an error wrapping %v", path, rep, err, sentinel)
			}
		} else if !errors.Is(err, ErrSchema) {
			t.Errorf("Parse(%s) = %v, want ErrSchema", path, err)
		}
	}
}
