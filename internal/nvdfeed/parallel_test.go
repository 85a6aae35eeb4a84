package nvdfeed

import (
	"reflect"
	"strings"
	"testing"

	"osdiversity/internal/cve"
)

// emitAllEntries drains r through emitAll, the decode StreamFiles runs
// per file (pooled with Workers(n > 1)).
func emitAllEntries(r *Reader) ([]*cve.Entry, error) {
	var out []*cve.Entry
	err := r.emitAll(func(e *cve.Entry) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// TestReadFileParallelWithinFile exercises the two-stage pipeline inside
// one file: the pooled emitAll must yield readAll's entries in order.
func TestReadFileParallelWithinFile(t *testing.T) {
	paths, _ := writeCorpusFeeds(t)
	path := paths[len(paths)-1]
	serial, _, err := readFiles([]string{path})
	if err != nil {
		t.Fatalf("readFiles: %v", err)
	}
	r, err := OpenFile(path, Workers(4))
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer r.Close()
	parallel, err := emitAllEntries(r)
	if err != nil {
		t.Fatalf("emitAll: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("single-file parallel decode differs from serial")
	}
}

// TestReadAllParallelLenient checks that the pooled pipeline still
// counts skipped entries in lenient mode.
func TestReadAllParallelLenient(t *testing.T) {
	feed := `<?xml version="1.0"?>
<nvd xmlns="http://scap.nist.gov/schema/feed/vulnerability/2.0"
     xmlns:vuln="http://scap.nist.gov/schema/vulnerability/0.4">
  <entry id="CVE-2001-0001">
    <vuln:cve-id>CVE-2001-0001</vuln:cve-id>
    <vuln:published-datetime>2001-02-01T12:00:00.000-00:00</vuln:published-datetime>
    <vuln:summary>Buffer overflow in the kernel.</vuln:summary>
  </entry>
  <entry id="not-a-cve">
    <vuln:cve-id>not-a-cve</vuln:cve-id>
    <vuln:published-datetime>2001-02-01T12:00:00.000-00:00</vuln:published-datetime>
    <vuln:summary>Broken identifier.</vuln:summary>
  </entry>
</nvd>`
	r := NewReader(strings.NewReader(feed), Lenient(), Workers(4))
	entries, err := emitAllEntries(r)
	if err != nil {
		t.Fatalf("emitAll: %v", err)
	}
	if len(entries) != 1 || entries[0].ID.String() != "CVE-2001-0001" {
		t.Fatalf("entries = %v", entries)
	}
	if r.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", r.Skipped())
	}
}
