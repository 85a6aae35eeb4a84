package nvdfeed

// This file is the feed decoder: a byte-level XML tokenizer and, on top
// of it, a reader of the few NVD 2.0 elements the study consumes. It
// fills one entry's fields straight from the input window, with no
// intermediate element tree, no reflection and no per-element name
// allocations. It accepts exactly the documents encoding/xml's Decoder
// (Strict, no CharsetReader) accepts and reads the fields its Unmarshal
// read into the struct mapping this scanner replaced; oracle_test.go
// keeps that decoder as the reference and FuzzDecodeMatchesOracle holds
// the two together:
//
//   - names: an element or attribute name is an XML name with at most
//     one colon, and fields match by the local part under any prefix;
//     an end tag must repeat its start tag's name byte for byte;
//   - text: the five predefined entities and numeric character
//     references are expanded, any other entity fails; "\r\n" and a
//     lone "\r" read as "\n"; CDATA is text, comments, processing
//     instructions and directives are not; every character must be
//     valid UTF-8 inside the XML Char range;
//   - an <?xml?> declaration must name version 1.0 and encoding UTF-8
//     if it names them at all, wherever it appears;
//   - the input may hold text and elements around and after the root,
//     but must end outside every element.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// scanBuffer is the input window: memory stays bounded by it, not by
// the feed, whatever the input size.
const scanBuffer = 32 << 10

// maxNesting is encoding/xml's unmarshal depth limit (maxUnmarshalDepth),
// counted the way its Unmarshal counted into the entry struct: a
// logical-test at nesting level k sat at depth 2k and its fact-refs at
// 2k+2.
const maxNesting = 10000

// errNesting is the one failure of the encoding/xml decode that was not
// a syntax error: Unmarshal stopped at an over-deep logical-test or
// fact-ref and the tokenizer went on from there. A lenient reader skips
// the entry and resumes scanning inside it, as that decode did.
var errNesting = errors.New("exceeded max depth")

// Token kinds next returns.
const (
	tokEOF = iota
	tokStart
	tokEnd
	tokText
)

// Character-data modes: plain text ends at '<', attribute values at
// their quote, CDATA at "]]>".
const (
	modeText = iota
	modeQuot
	modeApos
	modeCDATA
)

// plain[mode][c] is true for the bytes a character-data run of that
// mode copies without a second look.
var plain [4][256]bool

// nameByte is true for the bytes a name is read over: encoding/xml
// delimits names by any ASCII byte outside [A-Za-z0-9_:.-] and checks
// the multi-byte runes afterwards.
var nameByte [256]bool

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		ok := b >= 0x20 && b < 0x80 || b == '\t' || b == '\n'
		plain[modeText][c] = ok && b != '<' && b != '&' && b != ']'
		plain[modeQuot][c] = ok && b != '<' && b != '&' && b != '"'
		plain[modeApos][c] = ok && b != '<' && b != '&' && b != '\''
		plain[modeCDATA][c] = ok && b != ']'
		nameByte[c] = 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
			b == '_' || b == ':' || b == '.' || b == '-' || b >= 0x80
	}
}

// span is a byte range of the scanner's text arena.
type span struct{ lo, hi int }

// attr is one attribute of the current start tag: its local name and
// decoded value, as spans of the scanner's attribute arena.
type attr struct{ local, value span }

// scanner tokenizes one XML stream.
type scanner struct {
	src  io.Reader
	buf  []byte // the input window; buf[pos:] is unread
	pos  int
	base int64 // input offset of buf[0]
	rerr error // the source's terminal error (io.EOF at the end)
	err  error // the first syntax or read error, returned from then on

	open []byte // the open elements' names, concatenated
	ends []int  // the end offset in open of each open element's name
	// selfClose marks that the last start tag was empty: next returns
	// its end tag without reading.
	selfClose bool

	local   []byte // the current start tag's local name (a view into open)
	attrs   []attr
	attrBuf []byte
	text    []byte // the arena text tokens are appended to when kept
	scratch []byte
}

// fill slides the unread bytes to the front of the window and reads
// more. It returns false once the source has nothing more to give.
func (s *scanner) fill() bool {
	for s.rerr == nil {
		if s.buf == nil {
			s.buf = make([]byte, 0, scanBuffer)
		}
		if s.pos > 0 {
			n := copy(s.buf, s.buf[s.pos:])
			s.base += int64(s.pos)
			s.buf, s.pos = s.buf[:n], 0
		}
		n, err := s.src.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		s.rerr = err
		if n > 0 {
			return true
		}
	}
	return false
}

// ensure makes up to n unread bytes available and reports how many are.
func (s *scanner) ensure(n int) int {
	for len(s.buf)-s.pos < n && s.fill() {
	}
	return len(s.buf) - s.pos
}

// getc reads one byte; false means the input ended.
func (s *scanner) getc() (byte, bool) {
	if s.pos >= len(s.buf) && !s.fill() {
		return 0, false
	}
	b := s.buf[s.pos]
	s.pos++
	return b, true
}

// must reads one byte where the input may not end.
func (s *scanner) must() (byte, error) {
	b, ok := s.getc()
	if !ok {
		return 0, s.eof()
	}
	return b, nil
}

// eof is the error of an input that ends where it may not.
func (s *scanner) eof() error {
	if s.rerr != io.EOF {
		return s.fail(s.rerr)
	}
	return s.syntax("unexpected EOF")
}

// syntax records and returns a well-formedness error.
func (s *scanner) syntax(msg string) error {
	return s.fail(fmt.Errorf("XML syntax error at byte %d: %s", s.base+int64(s.pos), msg))
}

func (s *scanner) fail(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("nvdfeed: %w", err)
	}
	return s.err
}

// space skips XML whitespace.
func (s *scanner) space() {
	for {
		for s.pos < len(s.buf) {
			switch s.buf[s.pos] {
			case ' ', '\t', '\r', '\n':
				s.pos++
			default:
				return
			}
		}
		if !s.fill() {
			return
		}
	}
}

// next reads the next start tag, end tag or run of character data,
// consuming comments, processing instructions and directives on the
// way. With keep set, character data is appended to s.text; otherwise
// it is checked and dropped. At the end of the input it returns tokEOF,
// or an error if an element is still open.
func (s *scanner) next(keep bool) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.selfClose {
		s.selfClose = false
		s.pop()
		return tokEnd, nil
	}
	var dst *[]byte
	if keep {
		dst = &s.text
	}
	for {
		b, ok := s.getc()
		if !ok {
			if s.rerr != io.EOF {
				return 0, s.fail(s.rerr)
			}
			if len(s.ends) > 0 {
				return 0, s.syntax("unexpected EOF")
			}
			return tokEOF, nil
		}
		if b != '<' {
			s.pos--
			return tokText, s.chars(modeText, dst)
		}
		b, err := s.must()
		if err != nil {
			return 0, err
		}
		switch b {
		case '/':
			return tokEnd, s.endTag()
		case '?':
			err = s.procInst()
		case '!':
			var cdata bool
			if cdata, err = s.bang(); cdata && err == nil {
				return tokText, s.chars(modeCDATA, dst)
			}
		default:
			s.pos--
			return tokStart, s.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

// chars reads character data of the given mode, appending the decoded
// text to *dst unless dst is nil. The opening '<' or quote is already
// consumed; the closing quote or "]]>" is consumed, a closing '<' is
// not.
func (s *scanner) chars(mode int, dst *[]byte) error {
	keep := dst != nil
	table := &plain[mode]
	for {
		if s.pos >= len(s.buf) && !s.fill() {
			if mode == modeText && s.rerr == io.EOF {
				return nil
			}
			return s.eof()
		}
		run := s.buf[s.pos:]
		i := 0
		for i < len(run) && table[run[i]] {
			i++
		}
		if keep {
			*dst = append(*dst, run[:i]...)
		}
		s.pos += i
		if i == len(run) {
			continue
		}
		c := run[i]
		switch {
		case c == '<':
			if mode != modeText {
				return s.syntax("unescaped < inside quoted string")
			}
			return nil
		case c == '"' && mode == modeQuot, c == '\'' && mode == modeApos:
			s.pos++
			return nil
		case c == '&':
			s.pos++
			if err := s.entity(dst); err != nil {
				return err
			}
		case c == ']':
			if s.ensure(3) >= 3 && s.buf[s.pos+1] == ']' && s.buf[s.pos+2] == '>' {
				if mode == modeText {
					return s.syntax("unescaped ]]> not in CDATA section")
				}
				s.pos += 3
				return nil
			}
			s.pos++
			if keep {
				*dst = append(*dst, ']')
			}
		case c == '\r':
			s.pos++
			if s.ensure(1) >= 1 && s.buf[s.pos] == '\n' {
				s.pos++
			}
			if keep {
				*dst = append(*dst, '\n')
			}
		case c >= utf8.RuneSelf:
			s.ensure(utf8.UTFMax)
			r, size := utf8.DecodeRune(s.buf[s.pos:])
			if r == utf8.RuneError && size == 1 {
				return s.syntax("invalid UTF-8")
			}
			if !xmlChar(r) {
				return s.syntax(fmt.Sprintf("illegal character code %U", r))
			}
			if keep {
				*dst = append(*dst, s.buf[s.pos:s.pos+size]...)
			}
			s.pos += size
		default:
			return s.syntax(fmt.Sprintf("illegal character code %U", rune(c)))
		}
	}
}

// xmlChar reports whether r is in the Char production of XML 1.0.
func xmlChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// predefined are the entities XML declares without a DTD.
var predefined = map[string]byte{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// entity expands the reference after a '&': one of the five predefined
// entities or a numeric character reference. Anything else fails; no
// DTD is read.
func (s *scanner) entity(dst *[]byte) error {
	b, err := s.must()
	if err != nil {
		return err
	}
	if b == '#' {
		if b, err = s.must(); err != nil {
			return err
		}
		base := uint64(10)
		if b == 'x' {
			base = 16
			if b, err = s.must(); err != nil {
				return err
			}
		}
		var n uint64
		digits := 0
		for {
			d, ok := digitVal(b, base)
			if !ok {
				break
			}
			if n = n*base + d; n > utf8.MaxRune {
				n = utf8.MaxRune + 1 // stays out of range, never overflows
			}
			digits++
			if b, err = s.must(); err != nil {
				return err
			}
		}
		if b != ';' || digits == 0 || n > utf8.MaxRune {
			return s.syntax("invalid character entity")
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // a surrogate, as string(rune(n)) makes it
		}
		if !xmlChar(r) {
			return s.syntax(fmt.Sprintf("illegal character code %U", r))
		}
		if dst != nil {
			*dst = utf8.AppendRune(*dst, r)
		}
		return nil
	}
	s.pos--
	s.scratch = s.scratch[:0]
	for {
		if b, err = s.must(); err != nil {
			return err
		}
		if !nameByte[b] {
			break
		}
		s.scratch = append(s.scratch, b)
	}
	c, ok := predefined[string(s.scratch)]
	if b != ';' || !ok {
		return s.syntax("invalid character entity &" + string(s.scratch))
	}
	if dst != nil {
		*dst = append(*dst, c)
	}
	return nil
}

func digitVal(b byte, base uint64) (uint64, bool) {
	switch {
	case '0' <= b && b <= '9':
		return uint64(b - '0'), true
	case base == 16 && 'a' <= b && b <= 'f':
		return uint64(b-'a') + 10, true
	case base == 16 && 'A' <= b && b <= 'F':
		return uint64(b-'A') + 10, true
	}
	return 0, false
}

// name appends an XML name to dst. It fails if no name starts here.
func (s *scanner) name(dst []byte, what string) ([]byte, error) {
	start := len(dst)
	for {
		if s.pos >= len(s.buf) && !s.fill() {
			return dst, s.eof()
		}
		run := s.buf[s.pos:]
		i := 0
		for i < len(run) && nameByte[run[i]] {
			i++
		}
		dst = append(dst, run[:i]...)
		s.pos += i
		if i < len(run) {
			break
		}
	}
	n := dst[start:]
	if len(n) == 0 {
		return dst, s.syntax("expected " + what)
	}
	if !validName(n) {
		return dst, s.syntax("invalid XML name: " + string(n))
	}
	return dst, nil
}

// validName reports whether n, read over nameByte, is an XML name. An
// ASCII name may not start with a digit, '.' or '-'. Names with other
// runes are held to encoding/xml's own tables (the Letter and NameChar
// classes of XML 1.0's Appendix B), which it applies to the target of
// an encoded processing instruction.
func validName(n []byte) bool {
	for _, c := range n {
		if c >= utf8.RuneSelf {
			return xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: string(n)}) == nil
		}
	}
	c := n[0]
	return !('0' <= c && c <= '9' || c == '.' || c == '-')
}

// localName splits a qualified name the way encoding/xml does: with no
// colon, or a colon at either end, the whole name is local; two or more
// colons are not a name at all.
func localName(n []byte) ([]byte, bool) {
	i := bytes.IndexByte(n, ':')
	if i < 0 {
		return n, true
	}
	if bytes.IndexByte(n[i+1:], ':') >= 0 {
		return nil, false
	}
	if i == 0 || i == len(n)-1 {
		return n, true
	}
	return n[i+1:], true
}

// startTag reads a start tag after its '<' and opens the element.
func (s *scanner) startTag() error {
	lo := len(s.open)
	var err error
	if s.open, err = s.name(s.open, "element name after <"); err != nil {
		return err
	}
	local, ok := localName(s.open[lo:])
	if !ok {
		return s.syntax("expected element name after <")
	}
	s.ends = append(s.ends, len(s.open))
	s.local = local
	s.attrs, s.attrBuf = s.attrs[:0], s.attrBuf[:0]
	for {
		s.space()
		b, err := s.must()
		if err != nil {
			return err
		}
		if b == '/' {
			if b, err = s.must(); err != nil {
				return err
			}
			if b != '>' {
				return s.syntax("expected /> in element")
			}
			s.selfClose = true
			return nil
		}
		if b == '>' {
			return nil
		}
		s.pos--
		nlo := len(s.attrBuf)
		if s.attrBuf, err = s.name(s.attrBuf, "attribute name in element"); err != nil {
			return err
		}
		an, ok := localName(s.attrBuf[nlo:])
		if !ok {
			return s.syntax("expected attribute name in element")
		}
		a := attr{local: span{len(s.attrBuf) - len(an), len(s.attrBuf)}}
		s.space()
		if b, err = s.must(); err != nil {
			return err
		}
		if b != '=' {
			return s.syntax("attribute name without = in element")
		}
		s.space()
		if b, err = s.must(); err != nil {
			return err
		}
		mode := modeQuot
		if b == '\'' {
			mode = modeApos
		} else if b != '"' {
			return s.syntax("unquoted or missing attribute value in element")
		}
		a.value.lo = len(s.attrBuf)
		if err := s.chars(mode, &s.attrBuf); err != nil {
			return err
		}
		a.value.hi = len(s.attrBuf)
		s.attrs = append(s.attrs, a)
	}
}

// attr returns the value of the current start tag's last attribute
// with the given local name.
func (s *scanner) attr(local string) ([]byte, bool) {
	for i := len(s.attrs) - 1; i >= 0; i-- {
		a := s.attrs[i]
		if string(s.attrBuf[a.local.lo:a.local.hi]) == local {
			return s.attrBuf[a.value.lo:a.value.hi], true
		}
	}
	return nil, false
}

// endTag reads an end tag after its "</" and closes the element it
// names, which must be the innermost open one.
func (s *scanner) endTag() error {
	var err error
	if s.scratch, err = s.name(s.scratch[:0], "element name after </"); err != nil {
		return err
	}
	if _, ok := localName(s.scratch); !ok {
		return s.syntax("expected element name after </")
	}
	s.space()
	b, err := s.must()
	if err != nil {
		return err
	}
	if b != '>' {
		return s.syntax("invalid characters between </" + string(s.scratch) + " and >")
	}
	if len(s.ends) == 0 {
		return s.syntax("unexpected end element </" + string(s.scratch) + ">")
	}
	if top := s.open[s.openStart():]; !bytes.Equal(top, s.scratch) {
		return s.syntax("element <" + string(top) + "> closed by </" + string(s.scratch) + ">")
	}
	s.pop()
	return nil
}

func (s *scanner) openStart() int {
	if len(s.ends) < 2 {
		return 0
	}
	return s.ends[len(s.ends)-2]
}

func (s *scanner) pop() {
	s.open = s.open[:s.openStart()]
	s.ends = s.ends[:len(s.ends)-1]
}

// procInst reads a processing instruction after its "<?". Only an
// <?xml?> declaration is looked at.
func (s *scanner) procInst() error {
	var err error
	if s.scratch, err = s.name(s.scratch[:0], "target name after <?"); err != nil {
		return err
	}
	decl := string(s.scratch) == "xml"
	s.space()
	s.scratch = s.scratch[:0]
	var b0 byte
	for {
		b, err := s.must()
		if err != nil {
			return err
		}
		if b0 == '?' && b == '>' {
			break
		}
		if decl {
			s.scratch = append(s.scratch, b)
		}
		b0 = b
	}
	if !decl {
		return nil
	}
	content := string(s.scratch[:max(len(s.scratch)-1, 0)])
	if v := declParam("version", content); v != "" && v != "1.0" {
		return s.fail(fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", v))
	}
	if enc := declParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return s.fail(fmt.Errorf("xml: encoding %q declared but only UTF-8 is read", enc))
	}
	return nil
}

// declParam finds param="value" or param='value' in a declaration the
// way encoding/xml's procInst does: the first occurrence of `param=`
// followed by a quote, then everything up to the same quote.
func declParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param)
		q := s[i]
		i++
		if q == '\'' || q == '"' {
			j := strings.IndexByte(s[i:], q)
			if j < 0 {
				return ""
			}
			return s[i : i+j]
		}
	}
	return ""
}

// bang reads what follows "<!": a comment or directive, which it
// consumes, or the "[CDATA[" opening of a CDATA section, which it
// reports so the caller reads the section as text.
func (s *scanner) bang() (cdata bool, err error) {
	b, err := s.must()
	if err != nil {
		return false, err
	}
	switch b {
	case '-':
		if b, err = s.must(); err != nil {
			return false, err
		}
		if b != '-' {
			return false, s.syntax("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = s.must(); err != nil {
				return false, err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return false, s.syntax(`invalid sequence "--" not allowed in comments`)
				}
				return false, nil
			}
			b0, b1 = b1, b
		}
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = s.must(); err != nil {
				return false, err
			}
			if b != "CDATA["[i] {
				return false, s.syntax("invalid <![ sequence")
			}
		}
		return true, nil
	}
	return false, s.directive()
}

// directive consumes a <!...> directive after its first byte. Quoted
// '>' and '<' do not count, nested <...> pairs do, and a comment inside
// ends at the first "-->".
func (s *scanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.must()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = s.must(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = s.must(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// factRef is one fact-ref of a vulnerable-configuration: its name and
// the pre-order index of the logical-test holding it.
type factRef struct {
	test int
	name span
}

// fields is one entry as scanned, as spans of the scanner's text arena.
// A repeated field keeps its last value, and a repeated cvss block
// overwrites only the metrics it holds.
type fields struct {
	id, cveID, published, summary span
	cvss                          bool
	metrics                       [len(metricNames)]span
	products                      []span
	refs                          []factRef
	tests                         int
}

// metricNames are the CVSS base-metric elements the vector is read from.
var metricNames = [...]string{
	"access-vector", "access-complexity", "authentication",
	"confidentiality-impact", "integrity-impact", "availability-impact",
}

// entry reads the element whose start tag next just returned into f.
func (s *scanner) entry(f *fields) error {
	*f = fields{products: f.products[:0], refs: f.refs[:0]}
	s.text = s.text[:0]
	if v, ok := s.attr("id"); ok {
		f.id = s.keepBytes(v)
	}
	return s.children(func(local []byte) error {
		var err error
		switch string(local) {
		case "cve-id":
			f.cveID, err = s.elementText()
		case "published-datetime":
			f.published, err = s.elementText()
		case "summary":
			f.summary, err = s.elementText()
		case "vulnerable-software-list":
			err = s.children(func(local []byte) error {
				if string(local) != "product" {
					return s.skip()
				}
				t, err := s.elementText()
				f.products = append(f.products, t)
				return err
			})
		case "cvss":
			f.cvss = true
			err = s.children(func(local []byte) error {
				if string(local) != "base_metrics" {
					return s.skip()
				}
				return s.children(func(local []byte) error {
					for i, m := range metricNames {
						if string(local) == m {
							var err error
							f.metrics[i], err = s.elementText()
							return err
						}
					}
					return s.skip()
				})
			})
		case "vulnerable-configuration":
			err = s.children(func(local []byte) error {
				if string(local) != "logical-test" {
					return s.skip()
				}
				return s.logicalTest(f, 1)
			})
		default:
			err = s.skip()
		}
		return err
	})
}

// logicalTest reads a logical-test at nesting level k (1 directly under
// the configuration), numbering it in pre-order.
func (s *scanner) logicalTest(f *fields, k int) error {
	if 2*k >= maxNesting {
		return errNesting
	}
	test := f.tests
	f.tests++
	return s.children(func(local []byte) error {
		switch string(local) {
		case "fact-ref":
			if 2*k+2 >= maxNesting {
				return errNesting
			}
			ref := factRef{test: test}
			if v, ok := s.attr("name"); ok {
				ref.name = s.keepBytes(v)
			}
			f.refs = append(f.refs, ref)
			return s.skip()
		case "logical-test":
			return s.logicalTest(f, k+1)
		}
		return s.skip()
	})
}

// children hands each child element's local name to fn, which must
// consume the child, until the current element ends. Text is dropped.
func (s *scanner) children(fn func(local []byte) error) error {
	for {
		tok, err := s.next(false)
		if err != nil {
			return err
		}
		switch tok {
		case tokEnd:
			return nil
		case tokStart:
			if err := fn(s.local); err != nil {
				return err
			}
		}
	}
}

// elementText reads the current element's own text into the arena,
// skipping its child elements.
func (s *scanner) elementText() (span, error) {
	lo := len(s.text)
	err := s.consume(true)
	return span{lo, len(s.text)}, err
}

// skip consumes the current element.
func (s *scanner) skip() error { return s.consume(false) }

// consume reads to the end of the current element, keeping its own
// text (not its children's) when keep is set.
func (s *scanner) consume(keep bool) error {
	for depth := 0; ; {
		tok, err := s.next(keep && depth == 0)
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			depth++
		case tokEnd:
			if depth == 0 {
				return nil
			}
			depth--
		}
	}
}

// keepBytes copies b into the text arena.
func (s *scanner) keepBytes(b []byte) span {
	lo := len(s.text)
	s.text = append(s.text, b...)
	return span{lo, len(s.text)}
}

// bytesOf returns a span's bytes.
func (s *scanner) bytesOf(sp span) []byte { return s.text[sp.lo:sp.hi] }
