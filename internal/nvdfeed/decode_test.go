package nvdfeed

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
)

// date is a published-datetime element every decodeCases entry needs.
const date = `<vuln:published-datetime>2001-02-01T12:00:00.000-00:00</vuln:published-datetime>`

// doc wraps entries in a feed root with the usual prefixes bound.
func doc(body string) string {
	return `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<nvd xmlns="http://scap.nist.gov/schema/feed/vulnerability/2.0" xmlns:vuln="v" xmlns:cvss="c" xmlns:cpe-lang="l">` +
		body + "</nvd>\n"
}

// metrics renders a cvss block's base metrics.
func metrics(av, ac, au, c, i, a string) string {
	return `<cvss:base_metrics><cvss:access-vector>` + av + `</cvss:access-vector>` +
		`<cvss:access-complexity>` + ac + `</cvss:access-complexity>` +
		`<cvss:authentication>` + au + `</cvss:authentication>` +
		`<cvss:confidentiality-impact>` + c + `</cvss:confidentiality-impact>` +
		`<cvss:integrity-impact>` + i + `</cvss:integrity-impact>` +
		`<cvss:availability-impact>` + a + `</cvss:availability-impact></cvss:base_metrics>`
}

// describe renders the fields of an entry a decodeCases outcome names.
func describe(e *cve.Entry) string {
	var uris []string
	for _, p := range e.Products {
		uris = append(uris, p.URI())
	}
	s := fmt.Sprintf("%s %q [%s]", e.ID, e.Summary, strings.Join(uris, " "))
	if !e.CVSS.IsZero() {
		s += " " + e.CVSS.String()
	}
	return s
}

// decodeCases pins what the decoder accepts and reads: each document's
// entries (in describe form) and lenient skip count, or its failure.
// The outcomes are encoding/xml's, the decoder the scanner replaced.
var decodeCases = []struct {
	name    string
	doc     string
	lenient bool
	want    []string
	skipped int
	fail    bool
}{
	{
		name: "entry under any prefix, fields under any prefix",
		doc:  doc(`<q:entry xmlns:q="x" id="CVE-2001-0001"><q:cve-id>CVE-2001-0002</q:cve-id>` + date + `<z:summary>s</z:summary></q:entry>`),
		want: []string{`CVE-2001-0002 "s" []`},
	},
	{
		name: "entry at any depth outside an entry",
		doc:  doc(`<group><inner><entry id="CVE-2001-0001">` + date + `</entry></inner></group>`),
		want: []string{`CVE-2001-0001 "" []`},
	},
	{
		name: "entry inside an entry is ignored",
		doc: doc(`<entry id="CVE-2001-0001">` + date + `<summary>outer</summary>` +
			`<entry id="CVE-2001-0002">` + date + `<summary>inner</summary></entry></entry>`),
		want: []string{`CVE-2001-0001 "outer" []`},
	},
	{
		name: "id attribute under any prefix, last repeat wins",
		doc:  doc(`<entry q:id="CVE-2001-0001" id="CVE-2001-0002" xmlns:id="CVE-2001-0003">` + date + `</entry>`),
		want: []string{`CVE-2001-0003 "" []`},
	},
	{
		name: "empty cve-id falls back to the id attribute",
		doc:  doc(`<entry id="CVE-2001-0001"><cve-id></cve-id>` + date + `</entry>`),
		want: []string{`CVE-2001-0001 "" []`},
	},
	{
		name: "a field reads only its direct text",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + `<summary>a<b>x<c>y</c></b>c</summary></entry>`),
		want: []string{`CVE-2001-0001 "ac" []`},
	},
	{
		name: "CDATA kept, comments and processing instructions dropped, entities expanded",
		doc: doc(`<entry id="CVE-2001-0001">` + date +
			`<summary>a<![CDATA[<b>&amp;]]]><!-- c --><?pi x?>d&lt;&#65;&#x42;&quot;&apos;&gt;</summary></entry>`),
		want: []string{`CVE-2001-0001 "a<b>&amp;]d<AB\"'>" []`},
	},
	{
		name: "CRLF and lone CR read as LF, a CR reference stays CR",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + "<summary>a\r\nb\rc&#xD;d\r\r\ne</summary></entry>"),
		want: []string{`CVE-2001-0001 "a\nb\nc\rd\n\ne" []`},
	},
	{
		name: "surrogate reference reads as U+FFFD",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + `<summary>&#xD800;</summary></entry>`),
		want: []string{`CVE-2001-0001 "�" []`},
	},
	{
		name: "summary trimmed, identifier not",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + "<summary>\n  s  </summary></entry>"),
		want: []string{`CVE-2001-0001 "s" []`},
	},
	{
		name: "repeated cve-id, published-datetime and summary keep their last value",
		doc: doc(`<entry id="x"><cve-id>CVE-2001-0001</cve-id><cve-id>CVE-2001-0002</cve-id>` +
			`<published-datetime>bad</published-datetime>` + date + `<summary>one</summary><summary/></entry>`),
		want: []string{`CVE-2001-0002 "" []`},
	},
	{
		name: "a second cvss block overwrites only the metrics it holds",
		doc: doc(`<entry id="CVE-2001-0001">` + date +
			`<cvss>` + metrics("LOCAL", "HIGH", "NONE", "NONE", "NONE", "NONE") + `</cvss>` +
			`<cvss><base_metrics><access-vector>NETWORK</access-vector></base_metrics>` +
			`<base_metrics><availability-impact>COMPLETE</availability-impact></base_metrics></cvss></entry>`),
		want: []string{`CVE-2001-0001 "" [] AV:N/AC:H/Au:N/C:N/I:N/A:C`},
	},
	{
		name: "products only under the software list, trimmed; list first, then each test's own fact-refs before its nested tests', de-duplicated",
		doc: doc(`<entry id="CVE-2001-0001">` + date +
			`<product>cpe:/o:stray:stray</product>` +
			`<vuln:vulnerable-configuration><cpe-lang:logical-test>` +
			`<cpe-lang:logical-test><cpe-lang:fact-ref name="cpe:/o:b:b"/></cpe-lang:logical-test>` +
			`<cpe-lang:fact-ref name="cpe:/o:a:a"/><cpe-lang:fact-ref name=" cpe:/o:l:l "/>` +
			`</cpe-lang:logical-test><cpe-lang:logical-test><cpe-lang:fact-ref name="cpe:/o:c:c"/></cpe-lang:logical-test>` +
			`</vuln:vulnerable-configuration>` +
			`<vuln:vulnerable-software-list><vuln:product> cpe:/o:l:l
</vuln:product><other><vuln:product>cpe:/o:deep:deep</vuln:product></other><vuln:product></vuln:product></vuln:vulnerable-software-list>` +
			`</entry>`),
		want: []string{`CVE-2001-0001 "" [cpe:/o:l:l cpe:/o:a:a cpe:/o:b:b cpe:/o:c:c]`},
	},
	{
		name: "text and elements around and after the root",
		doc:  "\ufefflead<pre/>" + doc(`<entry id="CVE-2001-0001">`+date+`</entry>`) + "tail<post><entry id=\"CVE-2001-0002\">" + date + "</entry></post>\n",
		want: []string{`CVE-2001-0001 "" []`, `CVE-2001-0002 "" []`},
	},
	{
		name: "an undeclared entity fails",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + `<summary>a&nbsp;b</summary></entry>`),
		fail: true,
	},
	{
		name: "a DTD does not declare entities",
		doc:  `<!DOCTYPE nvd [<!ENTITY nbsp "&#160;">]>` + doc(`<entry id="CVE-2001-0001">`+date+`<summary>&nbsp;</summary></entry>`),
		fail: true,
	},
	{
		name: "invalid UTF-8 fails",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + "<summary>a\xffb</summary></entry>"),
		fail: true,
	},
	{
		name: "invalid UTF-8 fails outside any entry",
		doc:  doc("<other>\xc3</other>"),
		fail: true,
	},
	{
		name: "a NUL reference fails",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + `<summary>&#0;</summary></entry>`),
		fail: true,
	},
	{
		name: "a mismatched end tag fails",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + `<summary>s</vuln:summary></entry>`),
		fail: true,
	},
	{
		name:    "a mismatched end tag fails a lenient reader too",
		doc:     doc(`<entry id="CVE-2001-0001">` + date + `</entry><entry id="CVE-2001-0002"></entri>`),
		lenient: true,
		fail:    true,
	},
	{
		name: "a non-UTF-8 encoding declaration fails",
		doc:  strings.Replace(doc(`<entry id="CVE-2001-0001">`+date+`</entry>`), "UTF-8", "ISO-8859-1", 1),
		fail: true,
	},
	{
		name: "an encoding declaration in any case of utf-8 is read",
		doc:  strings.Replace(doc(`<entry id="CVE-2001-0001">`+date+`</entry>`), "UTF-8", "uTf-8", 1),
		want: []string{`CVE-2001-0001 "" []`},
	},
	{
		name: "a version other than 1.0 fails",
		doc:  strings.Replace(doc(`<entry id="CVE-2001-0001">`+date+`</entry>`), "1.0", "1.1", 1),
		fail: true,
	},
	{
		name: "a feed truncated inside an element fails",
		doc:  strings.TrimSuffix(doc(`<entry id="CVE-2001-0001">`+date+`</entry>`), "</nvd>\n"),
		fail: true,
	},
	{
		name: "a name with two colons fails",
		doc:  doc(`<a:b:c/>`),
		fail: true,
	},
	{
		name: "a name starting with a digit fails",
		doc:  doc(`<1a/>`),
		fail: true,
	},
	{
		name: "non-ASCII names in XML's letter and name-character classes",
		doc:  doc(`<é·><x:ü/></é·>` + `<entry id='CVE-2001-0001'>` + date + `</entry>`),
		want: []string{`CVE-2001-0001 "" []`},
	},
	{
		name: "a name starting with a name character that is not a letter fails",
		doc:  doc(`<·a/>`),
		fail: true,
	},
	{
		name: "a directive skips quoted and commented brackets",
		doc: `<!DOCTYPE nvd [<!-- > --> <!ELEMENT x "a>b"> <!ATTLIST y z CDATA 'q>'>]>` +
			doc(`<entry id="CVE-2001-0001">`+date+`</entry>`),
		want: []string{`CVE-2001-0001 "" []`},
	},
	{
		name: "an unquoted attribute fails",
		doc:  doc(`<entry id=CVE-2001-0001>` + date + `</entry>`),
		fail: true,
	},
	{
		name: "unescaped ]]> in text fails",
		doc:  doc(`<other>a]]>b</other>`),
		fail: true,
	},
	{
		name: "a double hyphen inside a comment fails",
		doc:  doc(`<!-- a -- b -->`),
		fail: true,
	},
	{
		name: "a strict reader fails on an unconvertible entry",
		doc:  doc(`<entry id="CVE-2001-0001">` + date + `</entry><entry id="bad">` + date + `</entry>`),
		fail: true,
	},
	{
		name: "a lenient reader skips and counts unconvertible entries",
		doc: doc(`<entry id="bad-id">` + date + `</entry>` +
			`<entry id="CVE-2001-0001"><published-datetime>never</published-datetime></entry>` +
			`<entry id="CVE-2001-0002">` + date + `<vuln:vulnerable-software-list><vuln:product>not-a-cpe</vuln:product></vuln:vulnerable-software-list></entry>` +
			`<entry id="CVE-2001-0003">` + date + `<cvss>` + metrics("NETWORK", "LOW", "NONE", "NONE", "NONE", " NONE") + `</cvss></entry>` +
			`<entry id="CVE-2001-0004">` + date + `<cvss/></entry>` +
			`<entry id="CVE-2001-0005">` + date + `<cvss>` + metrics("NETWORK", "LOW", "NONE", "NONE", "PARTIAL", "COMPLETE") + `</cvss></entry>`),
		lenient: true,
		want:    []string{`CVE-2001-0005 "" [] AV:N/AC:L/Au:N/C:N/I:P/A:C`},
		skipped: 5,
	},
}

// scanDoc decodes a document with the scanner, and oracleDoc with the
// reference decoder: the entries up to the first failure, the lenient
// skip count and that failure.
func scanDoc(in []byte, lenient bool) ([]*cve.Entry, int, error) {
	var opts []ReaderOption
	if lenient {
		opts = append(opts, Lenient())
	}
	r := NewReader(bytes.NewReader(in), opts...)
	entries, err := readAll(r)
	return entries, r.skipped, err
}

func oracleDoc(in []byte, lenient bool) ([]*cve.Entry, int, error) {
	o := newOracleReader(bytes.NewReader(in), lenient)
	entries, err := o.readAll()
	return entries, o.skipped, err
}

var decoders = []struct {
	name string
	read func(in []byte, lenient bool) ([]*cve.Entry, int, error)
}{{"scanner", scanDoc}, {"oracle", oracleDoc}}

// checkDecode runs doc through every decoder and compares each outcome
// with the expected one.
func checkDecode(t *testing.T, doc string, lenient bool, want []string, skipped int, fail bool) {
	t.Helper()
	for _, d := range decoders {
		entries, n, err := d.read([]byte(doc), lenient)
		if fail {
			if err == nil {
				t.Errorf("%s: decoded %d entries, want a failure", d.name, len(entries))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", d.name, err)
			continue
		}
		var got []string
		for _, e := range entries {
			got = append(got, describe(e))
		}
		if !reflect.DeepEqual(got, want) || n != skipped {
			t.Errorf("%s: entries %q skipped %d, want %q and %d", d.name, got, n, want, skipped)
		}
	}
}

// TestDecodeCases runs decodeCases through the scanner and the
// reference decoder.
func TestDecodeCases(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			checkDecode(t, tc.doc, tc.lenient, tc.want, tc.skipped, tc.fail)
		})
	}
}

// TestDecodeNesting covers encoding/xml's unmarshal depth limit, which
// the reference decode hits in configurations nested 5,000 deep: a strict
// reader fails, a lenient one skips the entry and goes on scanning from
// inside it, so an entry nested there is read.
func TestDecodeNesting(t *testing.T) {
	const levels = maxNesting / 2
	deep := doc(`<entry id="CVE-2001-0001">` + date + `<vulnerable-configuration>` +
		strings.Repeat("<logical-test>", levels) +
		`<entry id="CVE-2001-0002">` + date + `</entry>` +
		strings.Repeat("</logical-test>", levels) +
		`</vulnerable-configuration></entry>`)
	shallow := strings.Replace(deep, "<logical-test>", "", 1)
	shallow = strings.Replace(shallow, "</logical-test>", "", 1)
	refs := strings.Replace(shallow, `<entry id="CVE-2001-0002">`, `<fact-ref name="cpe:/o:a:a"/><entry id="CVE-2001-0002">`, 1)
	for _, tc := range []struct {
		name    string
		doc     string
		lenient bool
		want    []string
		skipped int
		fail    bool
	}{
		{"strict", deep, false, nil, 0, true},
		{"lenient", deep, true, []string{`CVE-2001-0002 "" []`}, 1, false},
		{"one level less", shallow, false, []string{`CVE-2001-0001 "" []`}, 0, false},
		{"fact-ref at that level", refs, true, []string{`CVE-2001-0002 "" []`}, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkDecode(t, tc.doc, tc.lenient, tc.want, tc.skipped, tc.fail)
		})
	}
}

// FuzzDecodeMatchesOracle holds the scanner to the reference decoder:
// on any input, in strict and lenient mode, both yield DeepEqual entries
// and equal skip counts, or both fail after DeepEqual entries (a failing
// reference may count the entry it failed in as skipped).
func FuzzDecodeMatchesOracle(f *testing.F) {
	f.Add([]byte(sampleFeed))
	for _, tc := range decodeCases {
		f.Add([]byte(tc.doc))
	}
	c, err := corpus.Generate()
	if err != nil {
		f.Fatalf("corpus.Generate: %v", err)
	}
	path := filepath.Join(f.TempDir(), "malformed.xml")
	if err := WriteFileWithMalformed(path, "CVE-FIX", c.Entries[:6], 2); err != nil {
		f.Fatalf("WriteFileWithMalformed: %v", err)
	}
	fixture, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, lenient := range []bool{false, true} {
			got, skipped, err := scanDoc(in, lenient)
			want, oskipped, oerr := oracleDoc(in, lenient)
			if (err == nil) != (oerr == nil) {
				t.Fatalf("lenient %v: scanner error %v, oracle error %v", lenient, err, oerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lenient %v: scanner read %d entries, oracle %d, or they differ", lenient, len(got), len(want))
			}
			if err == nil && skipped != oskipped {
				t.Fatalf("lenient %v: scanner skipped %d, oracle %d", lenient, skipped, oskipped)
			}
		}
	})
}
