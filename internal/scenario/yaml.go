package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// A minimal YAML-subset parser, enough for declarative scenario files
// and nothing more. The container ships no YAML dependency, and the
// scenario schema needs only the structural core of the language:
//
//   - block mappings ("key: value" / "key:" + indented block)
//   - block sequences ("- item", including inline "- key: value" items)
//   - flow sequences of scalars ("[a, b, c]")
//   - plain and quoted scalars, typed as bool / int / float / string
//   - comments ("# ..." outside quotes) and blank lines
//
// Anchors, aliases, multi-document streams, flow mappings, multi-line
// strings and tags are rejected with ErrSyntax. Scalars that look like
// durations ("250us") stay strings; the schema layer parses them. A
// scalar goes to strconv only when its shape could be a number (see
// numeric), so typing a name or a duration builds no error to discard.
//
// The parse result is the generic tree the decoder (decode.go) lays over
// the schema structs: map[string]any, []any, and scalar leaves (bool,
// int64, float64, string).

// yamlLine is one significant source line.
type yamlLine struct {
	num    int // 1-based source line number
	indent int // leading spaces
	text   string
}

// parseYAML parses a whole document into the generic tree.
func parseYAML(src []byte) (any, error) {
	lines, err := splitYAML(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return map[string]any{}, nil
	}
	p := &yamlParser{lines: lines}
	v, err := p.block(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("%w: line %d: unexpected dedent to %q", ErrSyntax, l.num, l.text)
	}
	return v, nil
}

// splitYAML strips comments and blanks, measures indentation, and
// rejects constructs outside the subset (tabs, document markers).
func splitYAML(src []byte) ([]yamlLine, error) {
	var out []yamlLine
	for num, raw := range strings.Split(string(src), "\n") {
		text := stripComment(raw)
		trimmed := strings.TrimSpace(text)
		if trimmed == "" {
			continue
		}
		if strings.Contains(text[:len(text)-len(strings.TrimLeft(text, " \t"))], "\t") {
			return nil, fmt.Errorf("%w: line %d: tab indentation", ErrSyntax, num+1)
		}
		if trimmed == "---" || trimmed == "..." {
			return nil, fmt.Errorf("%w: line %d: multi-document streams are not supported", ErrSyntax, num+1)
		}
		out = append(out, yamlLine{
			num:    num + 1,
			indent: len(text) - len(strings.TrimLeft(text, " ")),
			text:   trimmed,
		})
	}
	return out, nil
}

// stripComment removes a trailing "# ..." comment, respecting quotes.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i, r := range s {
		switch {
		case r == '\'' && !inDouble:
			inSingle = !inSingle
		case r == '"' && !inSingle:
			inDouble = !inDouble
		case r == '#' && !inSingle && !inDouble:
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// block parses the run of lines at exactly the given indent as one
// mapping or sequence (decided by the first line).
func (p *yamlParser) block(indent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("%w: unexpected end of document", ErrSyntax)
	}
	l := p.lines[p.pos]
	if l.indent != indent {
		return nil, fmt.Errorf("%w: line %d: inconsistent indentation", ErrSyntax, l.num)
	}
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.sequence(indent)
	}
	return p.mapping(indent)
}

// mapping parses "key: ..." lines at one indent level.
func (p *yamlParser) mapping(indent int) (any, error) {
	m := make(map[string]any)
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("%w: line %d: unexpected indent", ErrSyntax, l.num)
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, fmt.Errorf("%w: line %d: sequence item inside a mapping", ErrSyntax, l.num)
		}
		key, rest, err := splitKey(l)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("%w: line %d: duplicate key %q", ErrSyntax, l.num, key)
		}
		p.pos++
		if rest != "" {
			v, err := scalarOrFlow(rest, l.num)
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		// Value is the following indented block (or null when nothing
		// deeper follows).
		if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			v, err := p.block(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			m[key] = v
		} else {
			m[key] = nil
		}
	}
	return m, nil
}

// sequence parses "- ..." items at one indent level.
func (p *yamlParser) sequence(indent int) (any, error) {
	var seq []any
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("%w: line %d: unexpected indent", ErrSyntax, l.num)
		}
		if !strings.HasPrefix(l.text, "- ") && l.text != "-" {
			return nil, fmt.Errorf("%w: line %d: expected a sequence item", ErrSyntax, l.num)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		switch {
		case rest == "":
			// "-" alone: the item is the following indented block.
			p.pos++
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				v, err := p.block(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
				seq = append(seq, v)
			} else {
				seq = append(seq, nil)
			}
		case isKeyLine(rest):
			// "- key: value": the item is a mapping whose first entry is
			// inline. Rewrite the line as the entry and let mapping()
			// consume it plus any deeper continuation lines.
			itemIndent := indent + 2
			p.lines[p.pos] = yamlLine{num: l.num, indent: itemIndent, text: rest}
			v, err := p.mapping(itemIndent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		default:
			p.pos++
			v, err := scalarOrFlow(rest, l.num)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		}
	}
	return seq, nil
}

// splitKey splits a "key: rest" line.
func splitKey(l yamlLine) (key, rest string, err error) {
	i := strings.Index(l.text, ":")
	if i < 0 {
		return "", "", fmt.Errorf("%w: line %d: expected \"key: value\", got %q", ErrSyntax, l.num, l.text)
	}
	if i+1 < len(l.text) && l.text[i+1] != ' ' {
		return "", "", fmt.Errorf("%w: line %d: missing space after %q", ErrSyntax, l.num, l.text[:i+1])
	}
	key = strings.TrimSpace(l.text[:i])
	if key == "" {
		return "", "", fmt.Errorf("%w: line %d: empty key", ErrSyntax, l.num)
	}
	return key, strings.TrimSpace(l.text[i+1:]), nil
}

// isKeyLine reports whether a sequence item's inline content starts a
// mapping ("key: ..." with the colon outside any quotes).
func isKeyLine(s string) bool {
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") || strings.HasPrefix(s, "[") {
		return false
	}
	i := strings.Index(s, ":")
	return i > 0 && (i+1 == len(s) || s[i+1] == ' ')
}

// scalarOrFlow parses an inline value: a flow sequence of scalars, or a
// single scalar.
func scalarOrFlow(s string, num int) (any, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("%w: line %d: unterminated flow sequence %q", ErrSyntax, num, s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return []any{}, nil
		}
		var seq []any
		for _, part := range strings.Split(inner, ",") {
			part = strings.TrimSpace(part)
			if part == "" || strings.ContainsAny(part, "[]{}") {
				return nil, fmt.Errorf("%w: line %d: flow sequences may hold scalars only", ErrSyntax, num)
			}
			v, err := scalar(part, num)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		}
		return seq, nil
	}
	if strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("%w: line %d: flow mappings are not supported", ErrSyntax, num)
	}
	return scalar(s, num)
}

// scalar types one plain or quoted scalar.
func scalar(s string, num int) (any, error) {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1], nil
		}
	}
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") {
		return nil, fmt.Errorf("%w: line %d: unterminated quote in %q", ErrSyntax, num, s)
	}
	if strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*") || strings.HasPrefix(s, "!") {
		return nil, fmt.Errorf("%w: line %d: anchors, aliases and tags are not supported (%q)", ErrSyntax, num, s)
	}
	switch s {
	case "null", "~":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return plain(s), nil
}

// plain types a plain scalar that is not a keyword: an int64 or a
// float64 when strconv reads it as one, the string itself otherwise.
func plain(s string) any {
	if numeric(s) {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	return s
}

// numberBytes are the bytes of the decimal and hexadecimal numbers
// strconv reads: digits, hex digits (the exponent e among them), the
// 0x prefix, the binary exponent p, signs, the point and digit
// separators.
const numberBytes = "0123456789abcdefABCDEF+-._xXpP"

// numeric reports whether strconv could read s as a number: every byte
// is one of numberBytes, or s, with one sign dropped, is inf, infinity
// or nan in any case. That admits every string ParseInt and ParseFloat
// accept, so asking first changes no typed value; it spares the names
// and durations a file is mostly made of ("ring-a", "250us") the error
// value a failed parse builds.
func numeric(s string) bool {
	u := s
	if u != "" && (u[0] == '+' || u[0] == '-') {
		u = u[1:]
	}
	if strings.EqualFold(u, "inf") || strings.EqualFold(u, "infinity") || strings.EqualFold(u, "nan") {
		return true
	}
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(numberBytes, s[i]) < 0 {
			return false
		}
	}
	return true
}
