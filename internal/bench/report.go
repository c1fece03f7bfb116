package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Report formatting: aligned text tables for terminals, JSON for the
// goldens and for tools.

// FormatTable renders a figure as an aligned text table, one row per X
// value, one column per series.
func FormatTable(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure %s: %s\n", fig.ID, fig.Title)
	if len(fig.Series) > 0 {
		xs := collectXs(fig)
		head := []string{fig.XLabel}
		for _, s := range fig.Series {
			head = append(head, s.Label)
		}
		rows := [][]string{head}
		for _, x := range xs {
			row := []string{formatSize(x)}
			for _, s := range fig.Series {
				row = append(row, lookup(s, x))
			}
			rows = append(rows, row)
		}
		writeAligned(&b, rows, fig.YLabel)
	}
	for _, n := range fig.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	for _, line := range strategyStamps(fig) {
		fmt.Fprintf(&b, "   %s\n", line)
	}
	return b.String()
}

// strategyStamps summarizes which engine configuration each MAD-MPI
// series ran with, deduplicated, for the report footer.
func strategyStamps(fig Figure) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range fig.Series {
		if s.Strategy == "" {
			continue
		}
		line := "strategy: " + s.Strategy
		if s.EngineOptions != "" {
			line += " (" + s.EngineOptions + ")"
		}
		line += " — " + s.Label
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	return out
}

// FormatJSON renders a figure as machine-readable JSON; the committed
// goldens under testdata/figures are this output. It fails only on a
// figure holding a value JSON cannot carry (a NaN or infinite point).
func FormatJSON(fig Figure) (string, error) {
	data, err := json.MarshalIndent(fig, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: figure %s: %w", fig.ID, err)
	}
	return string(data), nil
}

func collectXs(fig Figure) []int {
	seen := map[int]bool{}
	var xs []int
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if !seen[pt.X] {
				seen[pt.X] = true
				xs = append(xs, pt.X)
			}
		}
	}
	sort.Ints(xs)
	return xs
}

func lookup(s Series, x int) string {
	for _, pt := range s.Points {
		if pt.X == x {
			return fmt.Sprintf("%.2f", pt.Y)
		}
	}
	return "-"
}

func formatSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprint(n)
	}
}

func writeAligned(b *strings.Builder, rows [][]string, unit string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(b, "   (values in %s)\n", unit)
	for ri, row := range rows {
		b.WriteString("   ")
		for i, cell := range row {
			fmt.Fprintf(b, "%*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			b.WriteString("   ")
			for i := range row {
				b.WriteString(strings.Repeat("-", widths[i]+2))
			}
			b.WriteByte('\n')
		}
	}
}

// speedup reports how much faster series a is than series b at the given
// X (b/a as a factor), for assertions and summaries.
func speedup(fig Figure, labelA, labelB string, x int) (float64, error) {
	var ya, yb float64
	var oka, okb bool
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.X != x {
				continue
			}
			if s.Label == labelA {
				ya, oka = pt.Y, true
			}
			if s.Label == labelB {
				yb, okb = pt.Y, true
			}
		}
	}
	if !oka || !okb {
		return 0, fmt.Errorf("bench: series %q/%q missing at x=%d", labelA, labelB, x)
	}
	if ya == 0 {
		return 0, fmt.Errorf("bench: zero measurement for %q at x=%d", labelA, x)
	}
	return yb / ya, nil
}
