// Package names holds the one true Go-identifier → snake_case mapping
// scenario files are spelled in: the scenario package derives its
// assertion-field tables from the core.Stats and simnet.FaultStats
// definitions, and the keys of its own schema structs, under this rule.
package names

import "strings"

// Snake converts an exported Go identifier to its snake_case assertion
// name: word boundaries open before an upper-case letter that follows a
// lower-case letter or digit ("OutputPackets" → "output_packets"), and
// before the last upper-case letter of an acronym run that is followed
// by a lower-case letter ("RDMABytes" → "rdma_bytes").
func Snake(ident string) string {
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
