package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// digest is the canonical fingerprint of one query answer: the column
// names plus the rows as JSON, sorted, so row order does not matter.
// In-process answers (int64 / float64 / string) and answers decoded from
// HTTP (numbers as float64) of the same values digest identically,
// because encoding/json writes an integral float64 and the equal int64
// the same way.
func digest(columns []string, rows [][]any) (string, error) {
	lines := make([]string, len(rows))
	for i, row := range rows {
		b, err := json.Marshal(row)
		if err != nil {
			return "", fmt.Errorf("digest row %d: %w", i, err)
		}
		lines[i] = string(b)
	}
	sort.Strings(lines)
	h := sha256.New()
	h.Write([]byte(strings.Join(columns, ",")))
	for _, l := range lines {
		h.Write([]byte{'\n'})
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
