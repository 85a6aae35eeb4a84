// Package nvdfeed reads and writes NVD vulnerability data feeds in the
// 2.0 XML schema — the format the paper's collection program parsed and
// inserted into its SQL database.
//
// The reader is streaming: a byte-level scanner (scan.go) decodes one
// <entry> element at a time out of a fixed input window, so feeds far
// larger than memory can be ingested. The writer produces feeds the
// reader round-trips exactly, which is how the calibrated synthetic
// corpus reaches the rest of the pipeline through the same code path
// real NVD data would take.
package nvdfeed

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
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

// Reader streams entries out of one XML feed.
type Reader struct {
	s       scanner
	f       fields
	cpes    cpeMemo
	picked  []cpe.Name
	lenient bool
	skipped int
	stats   *SkipStats
	workers int
	closers []io.Closer
}

// ReaderOption configures a Reader.
type ReaderOption func(*Reader)

// Lenient makes the reader skip entries that fail to convert (an
// unparseable identifier, datetime, CPE name or CVSS metric), counting
// them instead of failing the stream. A feed that is not well-formed XML
// fails in either mode. The default is strict.
func Lenient() ReaderOption {
	return func(r *Reader) { r.lenient = true }
}

// Workers sets the parallelism of StreamFiles: up to n files decode
// concurrently, each serially, and entry order is preserved exactly.
// n <= 0 selects GOMAXPROCS; the default is 1. Reader.Next ignores it.
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
	r := &Reader{s: scanner{src: src}}
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

// noteSkip counts one dropped entry, both on the reader and on any
// attached SkipStats aggregate.
func (r *Reader) noteSkip() {
	r.skipped++
	if r.stats != nil {
		r.stats.n.Add(1)
	}
}

// Next returns the next entry in the feed, or io.EOF when the feed is
// exhausted. An <entry> element matches under any prefix and at any
// depth outside another entry.
func (r *Reader) Next() (*cve.Entry, error) {
	for {
		tok, err := r.s.next(false)
		if err != nil {
			return nil, err
		}
		if tok == tokEOF {
			return nil, io.EOF
		}
		if tok != tokStart || string(r.s.local) != "entry" {
			continue
		}
		if err := r.s.entry(&r.f); err != nil {
			if err != errNesting {
				return nil, err
			}
			if !r.lenient {
				return nil, fmt.Errorf("nvdfeed: decode entry: %w", err)
			}
			r.noteSkip()
			continue
		}
		entry, err := r.toEntry()
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

// toEntry converts the scanned fields. The identifier is the cve-id
// element's text, or the id attribute's when that is empty.
func (r *Reader) toEntry() (*cve.Entry, error) {
	f, s := &r.f, &r.s
	idText := s.bytesOf(f.cveID)
	if len(idText) == 0 {
		idText = s.bytesOf(f.id)
	}
	id, err := cve.ParseID(string(idText))
	if err != nil {
		return nil, fmt.Errorf("nvdfeed: entry %q: %w", s.bytesOf(f.id), err)
	}
	published, err := parseTime(string(s.bytesOf(f.published)))
	if err != nil {
		return nil, fmt.Errorf("nvdfeed: entry %s: %w", id, err)
	}
	products, err := r.products()
	if err != nil {
		return nil, fmt.Errorf("nvdfeed: entry %s: %w", id, err)
	}
	entry := &cve.Entry{
		ID:        id,
		Published: published,
		Summary:   string(bytes.TrimSpace(s.bytesOf(f.summary))),
		Products:  products,
	}
	if f.cvss {
		if entry.CVSS, err = r.vector(); err != nil {
			return nil, fmt.Errorf("nvdfeed: entry %s: %w", id, err)
		}
	}
	return entry, nil
}

// products merges the vulnerable-software-list with the fact-refs of
// the vulnerable-configuration tests — each test's own before its
// nested tests' — trimmed and de-duplicated in first-seen order (list
// first, as NVD tools conventionally do).
func (r *Reader) products() ([]cpe.Name, error) {
	f, s := &r.f, &r.s
	byTest := func(a, b factRef) int { return cmp.Compare(a.test, b.test) }
	if !slices.IsSortedFunc(f.refs, byTest) {
		slices.SortStableFunc(f.refs, byTest)
	}
	r.cpes.startEntry()
	r.picked = r.picked[:0]
	add := func(sp span) error {
		uri := bytes.TrimSpace(s.bytesOf(sp))
		if len(uri) == 0 {
			return nil
		}
		n, dup, err := r.cpes.pick(uri)
		if err == nil && !dup {
			r.picked = append(r.picked, n)
		}
		return err
	}
	for _, sp := range f.products {
		if err := add(sp); err != nil {
			return nil, err
		}
	}
	for _, ref := range f.refs {
		if err := add(ref.name); err != nil {
			return nil, err
		}
	}
	if len(r.picked) == 0 {
		return nil, nil
	}
	return slices.Clone(r.picked), nil
}

// cpeMemoCap bounds the distinct CPE URIs a reader remembers.
const cpeMemoCap = 1 << 14

// cpeMemo parses each distinct CPE URI once per reader, so every entry
// naming a URI shares its vendor, product and version strings. Past
// cpeMemoCap URIs it starts over at the next entry, which keeps a
// reader's memory flat on feeds whose distinct CPEs grow with volume.
type cpeMemo struct {
	index map[string]int32
	names []cpe.Name
	// picked[i] is the entry generation that last picked names[i], which
	// de-duplicates an entry's products without a per-entry set.
	picked []uint64
	gen    uint64
}

// startEntry opens a new entry generation.
func (m *cpeMemo) startEntry() {
	if len(m.names) >= cpeMemoCap {
		clear(m.index)
		m.names, m.picked = m.names[:0], m.picked[:0]
	}
	m.gen++
}

// pick returns uri's parsed name and whether the current entry already
// picked it.
func (m *cpeMemo) pick(uri []byte) (cpe.Name, bool, error) {
	i, ok := m.index[string(uri)]
	if !ok {
		key := string(uri)
		n, err := cpe.Parse(key)
		if err != nil {
			return cpe.Name{}, false, err
		}
		if m.index == nil {
			m.index = make(map[string]int32)
		}
		i = int32(len(m.names))
		m.index[key] = i
		m.names = append(m.names, n)
		m.picked = append(m.picked, 0)
	}
	dup := m.picked[i] == m.gen
	m.picked[i] = m.gen
	return m.names[i], dup, nil
}

// vector maps the CVSS base metrics onto a vector. The metric texts
// must be the feed's spellings exactly.
func (r *Reader) vector() (cvss.Vector, error) {
	text := func(i int) []byte { return r.s.bytesOf(r.f.metrics[i]) }
	var v cvss.Vector
	var err error
	if v.AV, err = metric(text(0), "access-vector", cvss.AccessNetwork, cvss.AccessAdjacentNetwork, cvss.AccessLocal); err != nil {
		return cvss.Vector{}, err
	}
	if v.AC, err = metric(text(1), "access-complexity", cvss.ComplexityHigh, cvss.ComplexityMedium, cvss.ComplexityLow); err != nil {
		return cvss.Vector{}, err
	}
	if v.Au, err = metric(text(2), "authentication", cvss.AuthMultiple, cvss.AuthSingle, cvss.AuthNone); err != nil {
		return cvss.Vector{}, err
	}
	for i, dst := range []*cvss.Impact{&v.C, &v.I, &v.A} {
		if *dst, err = metric(text(3+i), "impact", cvss.ImpactNone, cvss.ImpactPartial, cvss.ImpactComplete); err != nil {
			return cvss.Vector{}, err
		}
	}
	return v, nil
}

// metric returns the value whose feed spelling (String) is text.
func metric[T fmt.Stringer](text []byte, name string, values ...T) (T, error) {
	for _, v := range values {
		if v.String() == string(text) {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("bad %s %q", name, text)
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
// positions. Only tests call it: it renders the fixtures the
// lenient-ingestion tests (nvdfeed's and the root package's) feed the
// pipeline. A strict reader fails on such a file,
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
