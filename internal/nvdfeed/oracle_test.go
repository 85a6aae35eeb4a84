package nvdfeed

// The reference decoder: encoding/xml's Decoder unmarshaling each
// <entry> into a struct mapping, then converting it. It is the decode
// the byte-level scanner replaced, kept here so FuzzDecodeMatchesOracle
// and the identity tests can hold the scanner to it. It shares only
// cve.ParseID, parseTime and cpe.Parse with the production path.

import (
	"compress/gzip"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/cvss"
)

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

// oracleReader streams entries out of one XML feed through
// encoding/xml.
type oracleReader struct {
	dec     *xml.Decoder
	lenient bool
	skipped int
}

func newOracleReader(src io.Reader, lenient bool) *oracleReader {
	return &oracleReader{dec: xml.NewDecoder(src), lenient: lenient}
}

// next returns the next entry, or io.EOF when the feed is exhausted.
func (r *oracleReader) next() (*cve.Entry, error) {
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
				r.skipped++
				continue
			}
			return nil, err
		}
		return entry, nil
	}
}

// readAll drains the reader: the entries up to the first failure, and
// that failure.
func (r *oracleReader) readAll() ([]*cve.Entry, error) {
	var out []*cve.Entry
	for {
		e, err := r.next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// nextRaw returns the next raw <entry> element, (nil, nil) for a
// leniently skipped undecodable element, or io.EOF at end of stream.
func (r *oracleReader) nextRaw() (*xmlEntry, error) {
	for {
		tok, err := r.dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("nvdfeed: token: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok || start.Name.Local != "entry" {
			continue
		}
		var raw xmlEntry
		if err := r.dec.DecodeElement(&raw, &start); err != nil {
			if r.lenient {
				r.skipped++
				return nil, nil
			}
			return nil, fmt.Errorf("nvdfeed: decode entry: %w", err)
		}
		return &raw, nil
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

// oracleReadFile decodes one feed file (".gz" transparently) with the
// reference decoder: its entries up to the first failure, the lenient
// skip count, and that failure.
func oracleReadFile(path string, lenient bool) ([]*cve.Entry, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("nvdfeed: %w", err)
	}
	defer f.Close()
	var src io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, 0, fmt.Errorf("nvdfeed: open %s: %w", path, err)
		}
		defer gz.Close()
		src = gz
	}
	r := newOracleReader(src, lenient)
	entries, err := r.readAll()
	return entries, r.skipped, err
}
