// Package nvdfeed reads and writes NVD vulnerability data feeds in the
// 2.0 XML schema — the format the paper's collection program parsed and
// inserted into its SQL database.
//
// The reader is streaming: it decodes one <entry> element at a time with
// xml.Decoder, so feeds far larger than memory can be ingested. The writer
// produces feeds the reader round-trips exactly, which is how the
// calibrated synthetic corpus reaches the rest of the pipeline through the
// same code path real NVD data would take.
package nvdfeed

import (
	"compress/gzip"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/cvss"
)

// Namespace URIs of the NVD 2.0 feed schema.
const (
	nsFeed    = "http://scap.nist.gov/schema/feed/vulnerability/2.0"
	nsVuln    = "http://scap.nist.gov/schema/vulnerability/0.4"
	nsCVSS    = "http://scap.nist.gov/schema/cvss-v2/0.2"
	nsCPELang = "http://cpe.mitre.org/language/2.0"
)

// timeLayout is NVD's datetime rendering.
const timeLayout = "2006-01-02T15:04:05.000-07:00"

// fallbackLayouts are accepted on input for robustness against feed
// generations that dropped fractional seconds or used Z suffixes.
var fallbackLayouts = []string{
	time.RFC3339,
	"2006-01-02T15:04:05-07:00",
	"2006-01-02",
}

// xmlEntry mirrors one <entry> element. Decoding matches on local names,
// so any prefix bound to the right namespace is accepted.
type xmlEntry struct {
	ID         string       `xml:"id,attr"`
	CVEID      string       `xml:"cve-id"`
	Published  string       `xml:"published-datetime"`
	Summary    string       `xml:"summary"`
	Products   []string     `xml:"vulnerable-software-list>product"`
	CVSS       *xmlCVSS     `xml:"cvss"`
	ConfigTest []xmlLogTest `xml:"vulnerable-configuration>logical-test"`
}

type xmlLogTest struct {
	Operator string       `xml:"operator,attr"`
	Negate   string       `xml:"negate,attr"`
	FactRefs []xmlFactRef `xml:"fact-ref"`
	Nested   []xmlLogTest `xml:"logical-test"`
}

type xmlFactRef struct {
	Name string `xml:"name,attr"`
}

type xmlCVSS struct {
	Base xmlBaseMetrics `xml:"base_metrics"`
}

type xmlBaseMetrics struct {
	Score            string `xml:"score"`
	AccessVector     string `xml:"access-vector"`
	AccessComplexity string `xml:"access-complexity"`
	Authentication   string `xml:"authentication"`
	ConfImpact       string `xml:"confidentiality-impact"`
	IntegImpact      string `xml:"integrity-impact"`
	AvailImpact      string `xml:"availability-impact"`
}

// Reader streams entries out of one XML feed.
type Reader struct {
	dec     *xml.Decoder
	lenient bool
	skipped atomic.Int64
	stats   *SkipStats
	workers int
	closers []io.Closer
}

// ReaderOption configures a Reader.
type ReaderOption func(*Reader)

// Lenient makes the reader skip entries that fail to decode or convert,
// counting them instead of failing the stream. The default is strict.
func Lenient() ReaderOption {
	return func(r *Reader) { r.lenient = true }
}

// Workers sets the parallelism of StreamFiles. The XML tokenizer stays
// sequential per file, but entry conversion (CPE parsing, datetime
// parsing, CVSS mapping) fans out to the worker pool, or whole files
// decode concurrently when there are several. Entry order is preserved
// exactly. n <= 0 selects GOMAXPROCS; the default is 1. Reader.Next
// ignores it.
func Workers(n int) ReaderOption {
	return func(r *Reader) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.workers = n
	}
}

// NewReader wraps an XML stream.
func NewReader(src io.Reader, opts ...ReaderOption) *Reader {
	r := &Reader{dec: xml.NewDecoder(src)}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// OpenFile opens a feed file, transparently decompressing ".gz" paths.
// Close the returned reader when done.
func OpenFile(path string, opts ...ReaderOption) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nvdfeed: %w", err)
	}
	var src io.Reader = f
	closers := []io.Closer{f}
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("nvdfeed: open %s: %w", path, err)
		}
		src = gz
		closers = append(closers, gz)
	}
	r := NewReader(src, opts...)
	r.closers = closers
	return r, nil
}

// Close releases file handles held by OpenFile. It is a no-op for readers
// built with NewReader.
func (r *Reader) Close() error {
	var firstErr error
	for i := len(r.closers) - 1; i >= 0; i-- {
		if err := r.closers[i].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.closers = nil
	return firstErr
}

// Skipped reports how many entries a lenient reader has dropped so far.
func (r *Reader) Skipped() int { return int(r.skipped.Load()) }

// noteSkip counts one dropped entry, both on the reader and on any
// attached SkipStats aggregate. The pipelined paths skip from more than
// one goroutine, hence the atomics.
func (r *Reader) noteSkip() {
	r.skipped.Add(1)
	if r.stats != nil {
		r.stats.n.Add(1)
	}
}

// Next returns the next entry in the feed, or io.EOF when the feed is
// exhausted.
func (r *Reader) Next() (*cve.Entry, error) {
	for {
		raw, err := r.nextRaw()
		if err != nil {
			return nil, err
		}
		if raw == nil {
			continue // lenient decode skip
		}
		entry, err := raw.toEntry()
		if err != nil {
			if r.lenient {
				r.noteSkip()
				continue
			}
			return nil, err
		}
		return entry, nil
	}
}

func (raw *xmlEntry) toEntry() (*cve.Entry, error) {
	idText := raw.CVEID
	if idText == "" {
		idText = raw.ID
	}
	id, err := cve.ParseID(idText)
	if err != nil {
		return nil, fmt.Errorf("nvdfeed: entry %q: %w", raw.ID, err)
	}
	published, err := parseTime(raw.Published)
	if err != nil {
		return nil, fmt.Errorf("nvdfeed: entry %s: %w", id, err)
	}
	products, err := raw.products()
	if err != nil {
		return nil, fmt.Errorf("nvdfeed: entry %s: %w", id, err)
	}
	entry := &cve.Entry{
		ID:        id,
		Published: published,
		Summary:   strings.TrimSpace(raw.Summary),
		Products:  products,
	}
	if raw.CVSS != nil {
		vec, err := raw.CVSS.Base.vector()
		if err != nil {
			return nil, fmt.Errorf("nvdfeed: entry %s: %w", id, err)
		}
		entry.CVSS = vec
	}
	return entry, nil
}

// products merges the vulnerable-software-list with any fact-refs of the
// vulnerable-configuration tests, de-duplicated, preserving first-seen
// order (list first, as NVD tools conventionally do).
func (raw *xmlEntry) products() ([]cpe.Name, error) {
	seen := make(map[string]bool, len(raw.Products))
	var out []cpe.Name
	add := func(uri string) error {
		uri = strings.TrimSpace(uri)
		if uri == "" || seen[uri] {
			return nil
		}
		n, err := cpe.Parse(uri)
		if err != nil {
			return err
		}
		seen[uri] = true
		out = append(out, n)
		return nil
	}
	for _, uri := range raw.Products {
		if err := add(uri); err != nil {
			return nil, err
		}
	}
	var walk func(tests []xmlLogTest) error
	walk = func(tests []xmlLogTest) error {
		for _, t := range tests {
			for _, fr := range t.FactRefs {
				if err := add(fr.Name); err != nil {
					return err
				}
			}
			if err := walk(t.Nested); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(raw.ConfigTest); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *xmlBaseMetrics) vector() (cvss.Vector, error) {
	var v cvss.Vector
	switch m.AccessVector {
	case "NETWORK":
		v.AV = cvss.AccessNetwork
	case "ADJACENT_NETWORK":
		v.AV = cvss.AccessAdjacentNetwork
	case "LOCAL":
		v.AV = cvss.AccessLocal
	default:
		return cvss.Vector{}, fmt.Errorf("bad access-vector %q", m.AccessVector)
	}
	switch m.AccessComplexity {
	case "HIGH":
		v.AC = cvss.ComplexityHigh
	case "MEDIUM":
		v.AC = cvss.ComplexityMedium
	case "LOW":
		v.AC = cvss.ComplexityLow
	default:
		return cvss.Vector{}, fmt.Errorf("bad access-complexity %q", m.AccessComplexity)
	}
	switch m.Authentication {
	case "MULTIPLE_INSTANCES":
		v.Au = cvss.AuthMultiple
	case "SINGLE_INSTANCE":
		v.Au = cvss.AuthSingle
	case "NONE":
		v.Au = cvss.AuthNone
	default:
		return cvss.Vector{}, fmt.Errorf("bad authentication %q", m.Authentication)
	}
	impact := func(s string) (cvss.Impact, error) {
		switch s {
		case "NONE":
			return cvss.ImpactNone, nil
		case "PARTIAL":
			return cvss.ImpactPartial, nil
		case "COMPLETE":
			return cvss.ImpactComplete, nil
		}
		return 0, fmt.Errorf("bad impact %q", s)
	}
	var err error
	if v.C, err = impact(m.ConfImpact); err != nil {
		return cvss.Vector{}, err
	}
	if v.I, err = impact(m.IntegImpact); err != nil {
		return cvss.Vector{}, err
	}
	if v.A, err = impact(m.AvailImpact); err != nil {
		return cvss.Vector{}, err
	}
	return v, nil
}

func parseTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return time.Time{}, errors.New("missing published-datetime")
	}
	if t, err := time.Parse(timeLayout, s); err == nil {
		return t, nil
	}
	for _, layout := range fallbackLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("unparseable datetime %q", s)
}

// Writer emits a feed. Entries stream out one at a time between Begin and
// End, so arbitrarily large feeds can be produced with constant memory.
type Writer struct {
	w     io.Writer
	began bool
	err   error
}

// NewWriter wraps an output stream.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Begin writes the XML header and the opening <nvd> element. The feed
// name (e.g. "CVE-2008") is recorded in the nvd_xml_version attributes
// block the way NVD stamps its feeds.
func (fw *Writer) Begin(feedName string) error {
	if fw.began {
		return errors.New("nvdfeed: Begin called twice")
	}
	fw.began = true
	header := xml.Header +
		`<nvd xmlns="` + nsFeed + `"` +
		` xmlns:vuln="` + nsVuln + `"` +
		` xmlns:cvss="` + nsCVSS + `"` +
		` xmlns:cpe-lang="` + nsCPELang + `"` +
		` nvd_xml_version="2.0" pub_date="" feed_name="` + xmlEscape(feedName) + `">` + "\n"
	_, fw.err = io.WriteString(fw.w, header)
	return fw.err
}

// Write emits one entry.
func (fw *Writer) Write(e *cve.Entry) error {
	if fw.err != nil {
		return fw.err
	}
	if !fw.began {
		return errors.New("nvdfeed: Write before Begin")
	}
	if err := e.Validate(); err != nil {
		return fmt.Errorf("nvdfeed: refusing to write invalid entry: %w", err)
	}
	var b strings.Builder
	id := e.ID.String()
	b.WriteString(`  <entry id="` + id + "\">\n")
	b.WriteString("    <vuln:vulnerable-configuration id=\"http://nvd.nist.gov/\">\n")
	b.WriteString("      <cpe-lang:logical-test operator=\"OR\" negate=\"false\">\n")
	for _, p := range e.Products {
		b.WriteString(`        <cpe-lang:fact-ref name="` + xmlEscape(p.URI()) + "\"/>\n")
	}
	b.WriteString("      </cpe-lang:logical-test>\n")
	b.WriteString("    </vuln:vulnerable-configuration>\n")
	b.WriteString("    <vuln:vulnerable-software-list>\n")
	for _, p := range e.Products {
		b.WriteString("      <vuln:product>" + xmlEscape(p.URI()) + "</vuln:product>\n")
	}
	b.WriteString("    </vuln:vulnerable-software-list>\n")
	b.WriteString("    <vuln:cve-id>" + id + "</vuln:cve-id>\n")
	b.WriteString("    <vuln:published-datetime>" + e.Published.Format(timeLayout) + "</vuln:published-datetime>\n")
	if !e.CVSS.IsZero() {
		v := e.CVSS
		b.WriteString("    <vuln:cvss>\n      <cvss:base_metrics>\n")
		fmt.Fprintf(&b, "        <cvss:score>%.1f</cvss:score>\n", v.BaseScore())
		b.WriteString("        <cvss:access-vector>" + v.AV.String() + "</cvss:access-vector>\n")
		b.WriteString("        <cvss:access-complexity>" + v.AC.String() + "</cvss:access-complexity>\n")
		b.WriteString("        <cvss:authentication>" + v.Au.String() + "</cvss:authentication>\n")
		b.WriteString("        <cvss:confidentiality-impact>" + v.C.String() + "</cvss:confidentiality-impact>\n")
		b.WriteString("        <cvss:integrity-impact>" + v.I.String() + "</cvss:integrity-impact>\n")
		b.WriteString("        <cvss:availability-impact>" + v.A.String() + "</cvss:availability-impact>\n")
		b.WriteString("        <cvss:source>http://nvd.nist.gov</cvss:source>\n")
		b.WriteString("      </cvss:base_metrics>\n    </vuln:cvss>\n")
	}
	b.WriteString("    <vuln:summary>" + xmlEscape(e.Summary) + "</vuln:summary>\n")
	b.WriteString("  </entry>\n")
	_, fw.err = io.WriteString(fw.w, b.String())
	return fw.err
}

// End closes the feed element.
func (fw *Writer) End() error {
	if fw.err != nil {
		return fw.err
	}
	if !fw.began {
		return errors.New("nvdfeed: End before Begin")
	}
	_, fw.err = io.WriteString(fw.w, "</nvd>\n")
	return fw.err
}

// WriteFeed writes a complete feed in one call.
func WriteFeed(w io.Writer, feedName string, entries []*cve.Entry) error {
	fw := NewWriter(w)
	if err := fw.Begin(feedName); err != nil {
		return err
	}
	for _, e := range entries {
		if err := fw.Write(e); err != nil {
			return err
		}
	}
	return fw.End()
}

// WriteFile writes a feed file, gzip-compressing ".gz" paths.
func WriteFile(path, feedName string, entries []*cve.Entry) (err error) {
	return writeFileFunc(path, func(w io.Writer) error {
		return WriteFeed(w, feedName, entries)
	})
}

// WriteFileWithMalformed writes a feed file containing the entries in
// order plus `malformed` syntactically well-formed but unconvertible
// <entry> elements (bad CVE identifiers) interleaved at evenly spaced
// positions. It renders the fixtures the lenient-ingestion tests and
// smoke flows feed the pipeline: a strict reader fails on such a file,
// a lenient one must skip exactly `malformed` entries and report the
// count instead of silently dropping it.
func WriteFileWithMalformed(path, feedName string, entries []*cve.Entry, malformed int) error {
	return writeFileFunc(path, func(w io.Writer) error {
		fw := NewWriter(w)
		if err := fw.Begin(feedName); err != nil {
			return err
		}
		writeBad := func(seq int) error {
			_, err := fmt.Fprintf(w, "  <entry id=\"bad-%d\">\n"+
				"    <vuln:cve-id>not-a-cve-%d</vuln:cve-id>\n"+
				"    <vuln:published-datetime>2001-01-01T00:00:00.000-00:00</vuln:published-datetime>\n"+
				"    <vuln:summary>malformed fixture entry</vuln:summary>\n"+
				"  </entry>\n", seq, seq)
			return err
		}
		interval := 1
		if malformed > 0 {
			interval = len(entries)/malformed + 1
		}
		injected := 0
		for i, e := range entries {
			if injected < malformed && i%interval == 0 {
				if err := writeBad(injected); err != nil {
					return err
				}
				injected++
			}
			if err := fw.Write(e); err != nil {
				return err
			}
		}
		for injected < malformed {
			if err := writeBad(injected); err != nil {
				return err
			}
			injected++
		}
		return fw.End()
	})
}

// writeFileFunc opens path (gzip-compressing ".gz") and hands the
// stream to body, closing everything in order.
func writeFileFunc(path string, body func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nvdfeed: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("nvdfeed: close %s: %w", path, cerr)
		}
	}()
	var w io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		defer func() {
			if cerr := gz.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("nvdfeed: close gzip %s: %w", path, cerr)
			}
		}()
		w = gz
	}
	return body(w)
}

func xmlEscape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		// strings.Builder never errors; keep the compiler honest.
		return s
	}
	return b.String()
}
