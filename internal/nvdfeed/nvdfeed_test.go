package nvdfeed

import (
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/cvss"
)

// sampleFeed is a hand-written fragment in the genuine NVD 2.0 shape,
// including namespace prefixes and a configuration block.
const sampleFeed = `<?xml version='1.0' encoding='UTF-8'?>
<nvd xmlns="http://scap.nist.gov/schema/feed/vulnerability/2.0"
     xmlns:vuln="http://scap.nist.gov/schema/vulnerability/0.4"
     xmlns:cvss="http://scap.nist.gov/schema/cvss-v2/0.2"
     xmlns:cpe-lang="http://cpe.mitre.org/language/2.0"
     nvd_xml_version="2.0" feed_name="CVE-2008">
  <entry id="CVE-2008-4609">
    <vuln:vulnerable-configuration id="http://nvd.nist.gov/">
      <cpe-lang:logical-test operator="OR" negate="false">
        <cpe-lang:fact-ref name="cpe:/o:openbsd:openbsd:4.2"/>
        <cpe-lang:fact-ref name="cpe:/o:microsoft:windows_2000"/>
      </cpe-lang:logical-test>
    </vuln:vulnerable-configuration>
    <vuln:vulnerable-software-list>
      <vuln:product>cpe:/o:openbsd:openbsd:4.2</vuln:product>
      <vuln:product>cpe:/o:netbsd:netbsd:4.0</vuln:product>
    </vuln:vulnerable-software-list>
    <vuln:cve-id>CVE-2008-4609</vuln:cve-id>
    <vuln:published-datetime>2008-10-20T17:59:00.000-04:00</vuln:published-datetime>
    <vuln:cvss>
      <cvss:base_metrics>
        <cvss:score>7.1</cvss:score>
        <cvss:access-vector>NETWORK</cvss:access-vector>
        <cvss:access-complexity>MEDIUM</cvss:access-complexity>
        <cvss:authentication>NONE</cvss:authentication>
        <cvss:confidentiality-impact>NONE</cvss:confidentiality-impact>
        <cvss:integrity-impact>NONE</cvss:integrity-impact>
        <cvss:availability-impact>COMPLETE</cvss:availability-impact>
        <cvss:source>http://nvd.nist.gov</cvss:source>
      </cvss:base_metrics>
    </vuln:cvss>
    <vuln:summary>The TCP implementation allows remote attackers to cause a denial of service via crafted segments.</vuln:summary>
  </entry>
  <entry id="CVE-2007-5365">
    <vuln:vulnerable-software-list>
      <vuln:product>cpe:/o:openbsd:openbsd</vuln:product>
    </vuln:vulnerable-software-list>
    <vuln:cve-id>CVE-2007-5365</vuln:cve-id>
    <vuln:published-datetime>2007-10-11T18:17:00.000-04:00</vuln:published-datetime>
    <vuln:summary>Stack-based buffer overflow in the DHCP implementation allows remote attackers to execute arbitrary code.</vuln:summary>
  </entry>
</nvd>
`

func TestReaderParsesSampleFeed(t *testing.T) {
	entries, err := readAll(NewReader(strings.NewReader(sampleFeed)))
	if err != nil {
		t.Fatalf("readAll: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}

	first := entries[0]
	if first.ID != cve.MustID("CVE-2008-4609") {
		t.Errorf("first ID = %v", first.ID)
	}
	// Products from the software list come first, then the config-only
	// fact-ref (windows_2000), de-duplicated (openbsd appears in both).
	wantProducts := []string{
		"cpe:/o:openbsd:openbsd:4.2",
		"cpe:/o:netbsd:netbsd:4.0",
		"cpe:/o:microsoft:windows_2000",
	}
	if len(first.Products) != len(wantProducts) {
		t.Fatalf("first entry products = %v, want %v", first.Products, wantProducts)
	}
	for i, w := range wantProducts {
		if got := first.Products[i].URI(); got != w {
			t.Errorf("product[%d] = %s, want %s", i, got, w)
		}
	}
	wantVec := cvss.MustParse("AV:N/AC:M/Au:N/C:N/I:N/A:C")
	if first.CVSS != wantVec {
		t.Errorf("CVSS = %+v, want %+v", first.CVSS, wantVec)
	}
	if !first.Remote() {
		t.Error("network entry not remote")
	}
	if got := first.Published.UTC(); got.Year() != 2008 || got.Month() != time.October {
		t.Errorf("published = %v", got)
	}

	second := entries[1]
	if !second.CVSS.IsZero() {
		t.Errorf("entry without cvss block has vector %+v", second.CVSS)
	}
	if second.Remote() {
		t.Error("entry without CVSS must not be remote")
	}
}

func testEntries() []*cve.Entry {
	return []*cve.Entry{
		{
			ID:        cve.MustID("CVE-2008-1447"),
			Published: time.Date(2008, 7, 8, 23, 41, 0, 0, time.UTC),
			Summary:   `DNS protocol implementation allows "cache poisoning" & <spoofing>.`,
			CVSS:      cvss.MustParse("AV:N/AC:L/Au:N/C:N/I:P/A:N"),
			Products: []cpe.Name{
				cpe.MustParse("cpe:/o:openbsd:openbsd:4.2"),
				cpe.MustParse("cpe:/o:freebsd:freebsd:7.0"),
				cpe.MustParse("cpe:/o:microsoft:windows_2000::sp4"),
			},
		},
		{
			ID:        cve.MustID("CVE-2003-0352"),
			Published: time.Date(2003, 8, 1, 0, 0, 0, 0, time.UTC),
			Summary:   "Buffer overflow in the kernel RPC interface.",
			Products:  []cpe.Name{cpe.MustParse("cpe:/o:microsoft:windows_2000")},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	entries := testEntries()
	var buf strings.Builder
	if err := WriteFeed(&buf, "CVE-TEST", entries); err != nil {
		t.Fatalf("WriteFeed: %v", err)
	}
	got, err := readAll(NewReader(strings.NewReader(buf.String())))
	if err != nil {
		t.Fatalf("readAll(written feed): %v\nfeed:\n%s", err, buf.String())
	}
	if len(got) != len(entries) {
		t.Fatalf("round trip count %d, want %d", len(got), len(entries))
	}
	for i, want := range entries {
		g := got[i]
		if g.ID != want.ID {
			t.Errorf("[%d] ID %v, want %v", i, g.ID, want.ID)
		}
		if !g.Published.Equal(want.Published) {
			t.Errorf("[%d] published %v, want %v", i, g.Published, want.Published)
		}
		if g.Summary != want.Summary {
			t.Errorf("[%d] summary %q, want %q", i, g.Summary, want.Summary)
		}
		if g.CVSS != want.CVSS {
			t.Errorf("[%d] cvss %+v, want %+v", i, g.CVSS, want.CVSS)
		}
		if len(g.Products) != len(want.Products) {
			t.Fatalf("[%d] products %v, want %v", i, g.Products, want.Products)
		}
		for j := range want.Products {
			if g.Products[j] != want.Products[j] {
				t.Errorf("[%d] product[%d] %v, want %v", i, j, g.Products[j], want.Products[j])
			}
		}
	}
}

func TestFileRoundTripPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	entries := testEntries()
	for _, name := range []string{"feed.xml", "feed.xml.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, "CVE-TEST", entries); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		got, _, err := readFiles([]string{path})
		if err != nil {
			t.Fatalf("readFiles(%s): %v", name, err)
		}
		if len(got) != len(entries) {
			t.Fatalf("readFiles(%s) = %d entries, want %d", name, len(got), len(entries))
		}
	}
}

func TestReaderStrictFailsOnBadEntry(t *testing.T) {
	feed := strings.Replace(sampleFeed, "CVE-2007-5365</vuln:cve-id>", "NOT-A-CVE</vuln:cve-id>", 1)
	_, err := readAll(NewReader(strings.NewReader(feed)))
	if err == nil {
		t.Fatal("strict reader accepted malformed CVE id")
	}
}

func TestReaderLenientSkipsBadEntry(t *testing.T) {
	feed := strings.Replace(sampleFeed, "CVE-2007-5365</vuln:cve-id>", "NOT-A-CVE</vuln:cve-id>", 1)
	r := NewReader(strings.NewReader(feed), Lenient())
	entries, err := readAll(r)
	if err != nil {
		t.Fatalf("lenient readAll: %v", err)
	}
	if len(entries) != 1 || r.Skipped() != 1 {
		t.Fatalf("lenient reader: %d entries, %d skipped; want 1 and 1", len(entries), r.Skipped())
	}
}

func TestReaderRejectsBadProducts(t *testing.T) {
	feed := strings.Replace(sampleFeed, "cpe:/o:netbsd:netbsd:4.0", "not-a-cpe", 1)
	if _, err := readAll(NewReader(strings.NewReader(feed))); err == nil {
		t.Fatal("reader accepted malformed CPE uri")
	}
}

func TestReaderRejectsBadCVSS(t *testing.T) {
	feed := strings.Replace(sampleFeed, "<cvss:access-vector>NETWORK</cvss:access-vector>",
		"<cvss:access-vector>TELEPATHY</cvss:access-vector>", 1)
	if _, err := readAll(NewReader(strings.NewReader(feed))); err == nil {
		t.Fatal("reader accepted bad access vector")
	}
}

func TestReaderRejectsMissingDate(t *testing.T) {
	feed := strings.Replace(sampleFeed,
		"<vuln:published-datetime>2007-10-11T18:17:00.000-04:00</vuln:published-datetime>", "", 1)
	if _, err := readAll(NewReader(strings.NewReader(feed))); err == nil {
		t.Fatal("reader accepted entry without a publication date")
	}
}

func TestParseTimeVariants(t *testing.T) {
	good := []string{
		"2008-10-20T17:59:00.000-04:00",
		"2008-10-20T17:59:00-04:00",
		"2008-10-20T17:59:00Z",
		"2008-10-20",
	}
	for _, s := range good {
		if _, err := parseTime(s); err != nil {
			t.Errorf("parseTime(%q): %v", s, err)
		}
	}
	for _, s := range []string{"", "yesterday", "20/10/2008"} {
		if _, err := parseTime(s); err == nil {
			t.Errorf("parseTime(%q) succeeded", s)
		}
	}
}

func TestWriterRefusesInvalidEntry(t *testing.T) {
	var buf strings.Builder
	fw := NewWriter(&buf)
	if err := fw.Begin("X"); err != nil {
		t.Fatal(err)
	}
	bad := &cve.Entry{ID: cve.MustID("CVE-2005-0001")} // no date, no products
	if err := fw.Write(bad); err == nil {
		t.Fatal("writer accepted invalid entry")
	}
}

func TestWriterProtocol(t *testing.T) {
	var buf strings.Builder
	fw := NewWriter(&buf)
	if err := fw.Write(testEntries()[0]); err == nil {
		t.Error("Write before Begin succeeded")
	}
	if err := fw.End(); err == nil {
		t.Error("End before Begin succeeded")
	}
	if err := fw.Begin("X"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Begin("X"); err == nil {
		t.Error("double Begin succeeded")
	}
}

func TestXMLEscaping(t *testing.T) {
	e := testEntries()[0] // summary contains quotes, & and angle brackets
	var buf strings.Builder
	if err := WriteFeed(&buf, "CVE-TEST", []*cve.Entry{e}); err != nil {
		t.Fatalf("WriteFeed: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "<spoofing>") {
		t.Error("summary markup not escaped")
	}
	got, err := readAll(NewReader(strings.NewReader(out)))
	if err != nil || len(got) != 1 || got[0].Summary != e.Summary {
		t.Fatalf("escaped summary did not round trip: %v, %v", err, got)
	}
}

func TestEmptyFeed(t *testing.T) {
	var buf strings.Builder
	if err := WriteFeed(&buf, "EMPTY", nil); err != nil {
		t.Fatalf("WriteFeed(empty): %v", err)
	}
	r := NewReader(strings.NewReader(buf.String()))
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next on empty feed = %v, want io.EOF", err)
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "absent.xml")); err == nil {
		t.Fatal("OpenFile on missing path succeeded")
	}
}

func TestStreamingDoesNotNeedWholeFile(t *testing.T) {
	// The reader must yield the first entry even if the feed is truncated
	// after it — evidence of true streaming.
	cut := strings.Index(sampleFeed, "<entry id=\"CVE-2007-5365\">")
	r := NewReader(strings.NewReader(sampleFeed[:cut]))
	e, err := r.Next()
	if err != nil || e.ID != cve.MustID("CVE-2008-4609") {
		t.Fatalf("streaming first entry: %v, %v", e, err)
	}
}
