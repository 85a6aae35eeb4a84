// Package cve models Common Vulnerabilities and Exposures identifiers and
// vulnerability entries as they appear in the NIST National Vulnerability
// Database (NVD).
//
// The package is deliberately independent of any particular feed format:
// internal/nvdfeed converts XML entries into cve.Entry values, and the
// analysis layers consume only the types defined here.
package cve

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is a CVE identifier such as "CVE-2008-4609".
//
// The zero value is not a valid identifier; use ParseID or MustID to build
// one. IDs order first by year and then by sequence number.
type ID struct {
	// Year is the year component of the identifier. It reflects when the
	// identifier was assigned, not necessarily when the vulnerability was
	// discovered or published.
	Year int
	// Seq is the sequence number within the year. Historically four
	// digits, but CVE allows arbitrarily long sequences since 2014; we
	// accept any non-negative number.
	Seq int
}

// ParseID parses an identifier of the form "CVE-YYYY-NNNN". The prefix is
// matched case-insensitively, as some sources write "cve-...".
func ParseID(s string) (ID, error) {
	parts := strings.SplitN(s, "-", 3)
	if len(parts) != 3 || !strings.EqualFold(parts[0], "CVE") {
		return ID{}, fmt.Errorf("cve: malformed identifier %q", s)
	}
	year, err := strconv.Atoi(parts[1])
	if err != nil || len(parts[1]) != 4 {
		return ID{}, fmt.Errorf("cve: malformed year in %q", s)
	}
	if year < 1988 || year > 2100 {
		return ID{}, fmt.Errorf("cve: implausible year %d in %q", year, s)
	}
	if len(parts[2]) < 4 {
		return ID{}, fmt.Errorf("cve: sequence too short in %q", s)
	}
	seq, err := strconv.Atoi(parts[2])
	if err != nil || seq < 0 {
		return ID{}, fmt.Errorf("cve: malformed sequence in %q", s)
	}
	return ID{Year: year, Seq: seq}, nil
}

// MustID is like ParseID but panics on malformed input. Only tests call
// it, to write identifiers literally (core, corpus, classify, vulndb,
// attack and nvdfeed tests).
func MustID(s string) ID {
	id, err := ParseID(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String renders the identifier in canonical "CVE-YYYY-NNNN" form. Sequence
// numbers are zero-padded to four digits, matching NVD's presentation.
func (id ID) String() string {
	return fmt.Sprintf("CVE-%04d-%04d", id.Year, id.Seq)
}

// IsZero reports whether id is the zero identifier.
func (id ID) IsZero() bool { return id.Year == 0 && id.Seq == 0 }

// Compare orders identifiers by year, then sequence. It returns -1, 0 or
// +1, matching the convention of strings.Compare.
func (id ID) Compare(other ID) int {
	switch {
	case id.Year < other.Year:
		return -1
	case id.Year > other.Year:
		return 1
	case id.Seq < other.Seq:
		return -1
	case id.Seq > other.Seq:
		return 1
	}
	return 0
}

// Less reports whether id sorts before other.
func (id ID) Less(other ID) bool { return id.Compare(other) < 0 }
