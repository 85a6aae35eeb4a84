package cve

import (
	"fmt"
	"sort"
	"time"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cvss"
)

// Entry is one NVD vulnerability report, reduced to the fields the paper's
// methodology section says the study needs: "the name, publication date,
// summary (description), type of exploit (local or remote) and the list of
// affected configurations".
type Entry struct {
	// ID is the CVE identifier of the entry.
	ID ID
	// Published is the publication date of the entry in NVD.
	Published time.Time
	// Summary is the free-text description. The validity tags the paper
	// filters on (Unknown, Unspecified, **DISPUTED**) appear here, as they
	// do in real NVD summaries.
	Summary string
	// CVSS is the parsed base vector; the zero value means the entry
	// carries no CVSS data (common for very old entries).
	CVSS cvss.Vector
	// Products lists the affected platforms (the vulnerable-software list
	// of the feed). Only entries with at least one "/o" product are
	// OS-level vulnerabilities.
	Products []cpe.Name
}

// Remote reports whether the entry is remotely exploitable under the
// paper's criterion (CVSS access vector NETWORK or ADJACENT_NETWORK).
// Entries without CVSS data are conservatively treated as local.
func (e *Entry) Remote() bool {
	return !e.CVSS.IsZero() && e.CVSS.AV.Remote()
}

// HasOSProduct reports whether any affected product is an operating
// system platform ("/o" part), which is the paper's selection criterion
// for OS-level vulnerabilities. Only tests call it (core's delta
// fixture picks its entries with it).
func (e *Entry) HasOSProduct() bool {
	for _, p := range e.Products {
		if p.IsOS() {
			return true
		}
	}
	return false
}

// AffectsProduct reports whether the entry lists a product matching the
// given (vendor, product) pair, irrespective of version. Only tests call
// it (corpus's TestWindows2000PreRelease).
func (e *Entry) AffectsProduct(vendor, product string) bool {
	for _, p := range e.Products {
		if p.Vendor == vendor && p.Product == product {
			return true
		}
	}
	return false
}

// Year returns the publication year.
func (e *Entry) Year() int { return e.Published.Year() }

// Validate checks internal consistency of the entry: a usable ID, a
// publication date, and a non-empty product list with no duplicates.
func (e *Entry) Validate() error {
	if e.ID.IsZero() {
		return fmt.Errorf("cve: entry has zero ID")
	}
	if e.Published.IsZero() {
		return fmt.Errorf("cve: entry %s has no publication date", e.ID)
	}
	if len(e.Products) == 0 {
		return fmt.Errorf("cve: entry %s affects no products", e.ID)
	}
	seen := make(map[string]bool, len(e.Products))
	for _, p := range e.Products {
		uri := p.URI()
		if seen[uri] {
			return fmt.Errorf("cve: entry %s lists product %s twice", e.ID, uri)
		}
		seen[uri] = true
	}
	return nil
}

// Clone returns a deep copy of the entry. Only tests call it: core's
// delta tests and fuzzer edit clones of a base corpus's entries.
func (e *Entry) Clone() *Entry {
	dup := *e
	dup.Products = append([]cpe.Name(nil), e.Products...)
	return &dup
}

// SortEntries orders entries by ID (year, then sequence), giving analyses
// a deterministic iteration order.
func SortEntries(entries []*Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID.Less(entries[j].ID) })
}
