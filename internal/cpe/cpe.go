// Package cpe implements the Common Platform Enumeration naming scheme
// used by the National Vulnerability Database to describe the systems a
// vulnerability affects.
//
// Two bindings are supported:
//
//   - the CPE 2.2 URI binding used by NVD 2.0 feeds,
//     e.g. "cpe:/o:openbsd:openbsd:4.2"
//   - the CPE 2.3 formatted-string binding,
//     e.g. "cpe:2.3:o:openbsd:openbsd:4.2:*:*:*:*:*:*:*"
//
// Both parse into one normalized Name value, which renders back in the
// 2.2 binding. The study clusters names by (vendor, product) and reads
// the part to tell operating systems from applications.
package cpe

import (
	"fmt"
	"strings"
)

// Part identifies the top-level class of a platform: hardware, operating
// system or application.
type Part byte

// The three CPE parts. PartAny is the empty or "*" part, which stands for
// any part.
const (
	PartHardware    Part = 'h'
	PartOS          Part = 'o'
	PartApplication Part = 'a'
	PartAny         Part = '*'
)

// ParsePart converts the single-letter CPE part code.
func ParsePart(s string) (Part, error) {
	switch s {
	case "h":
		return PartHardware, nil
	case "o":
		return PartOS, nil
	case "a":
		return PartApplication, nil
	case "", "*":
		return PartAny, nil
	default:
		return 0, fmt.Errorf("cpe: unknown part %q", s)
	}
}

// String returns the single-letter code for the part.
func (p Part) String() string {
	switch p {
	case PartHardware, PartOS, PartApplication:
		return string(byte(p))
	case PartAny:
		return "*"
	default:
		return "?"
	}
}

// Name is a parsed CPE name. Empty components mean "unspecified" (ANY in
// 2.3 parlance). Only the seven 2.2 components are modeled; the extra 2.3
// fields (sw_edition, target_sw, target_hw, other) are folded into Edition
// when a 2.3 string is parsed, mirroring the 2.3→2.2 down-conversion rule.
type Name struct {
	Part     Part
	Vendor   string
	Product  string
	Version  string
	Update   string
	Edition  string
	Language string
}

// Parse parses either binding, deciding by prefix.
func Parse(s string) (Name, error) {
	switch {
	case strings.HasPrefix(s, "cpe:2.3:"):
		return Parse23(s)
	case strings.HasPrefix(s, "cpe:/"):
		return Parse22(s)
	default:
		return Name{}, fmt.Errorf("cpe: unrecognized binding in %q", s)
	}
}

// MustParse is Parse but panics on error; for static tables.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Parse22 parses the CPE 2.2 URI binding, e.g. "cpe:/o:microsoft:windows_2000::sp4".
func Parse22(s string) (Name, error) {
	body, ok := strings.CutPrefix(s, "cpe:/")
	if !ok {
		return Name{}, fmt.Errorf("cpe: %q lacks cpe:/ prefix", s)
	}
	fields := strings.Split(body, ":")
	if len(fields) > 7 {
		return Name{}, fmt.Errorf("cpe: too many components in %q", s)
	}
	get := func(i int) string {
		if i < len(fields) {
			return decode22(fields[i])
		}
		return ""
	}
	part, err := ParsePart(get(0))
	if err != nil {
		return Name{}, fmt.Errorf("cpe: %q: %w", s, err)
	}
	n := Name{
		Part:     part,
		Vendor:   get(1),
		Product:  get(2),
		Version:  get(3),
		Update:   get(4),
		Edition:  get(5),
		Language: get(6),
	}
	if n.Vendor == "" && n.Product == "" {
		return Name{}, fmt.Errorf("cpe: %q has neither vendor nor product", s)
	}
	return n, nil
}

// Parse23 parses the CPE 2.3 formatted-string binding.
func Parse23(s string) (Name, error) {
	body, ok := strings.CutPrefix(s, "cpe:2.3:")
	if !ok {
		return Name{}, fmt.Errorf("cpe: %q lacks cpe:2.3: prefix", s)
	}
	fields := splitUnescaped(body, ':')
	if len(fields) != 11 {
		return Name{}, fmt.Errorf("cpe: 2.3 name %q has %d components, want 11", s, len(fields))
	}
	for i, f := range fields {
		fields[i] = decode23(f)
	}
	part, err := ParsePart(fields[0])
	if err != nil {
		return Name{}, fmt.Errorf("cpe: %q: %w", s, err)
	}
	n := Name{
		Part:     part,
		Vendor:   fields[1],
		Product:  fields[2],
		Version:  fields[3],
		Update:   fields[4],
		Edition:  fields[5],
		Language: fields[6],
	}
	// Fold the four extended attributes into Edition per the packing rule
	// used for 2.3→2.2 down-conversion, but only when any is meaningful.
	ext := fields[7:11]
	if anyConcrete(ext) {
		n.Edition = "~" + n.Edition + "~" + strings.Join(ext, "~")
	}
	return n, nil
}

func anyConcrete(fields []string) bool {
	for _, f := range fields {
		if f != "" {
			return true
		}
	}
	return false
}

// URI renders the name in the 2.2 URI binding, trimming trailing empty
// components as NVD does.
func (n Name) URI() string {
	comps := []string{
		n.Part.String(), encode22(n.Vendor), encode22(n.Product), encode22(n.Version),
		encode22(n.Update), encode22(n.Edition), encode22(n.Language),
	}
	if n.Part == PartAny {
		comps[0] = ""
	}
	last := len(comps)
	for last > 1 && comps[last-1] == "" {
		last--
	}
	return "cpe:/" + strings.Join(comps[:last], ":")
}

// String implements fmt.Stringer using the 2.2 URI binding.
func (n Name) String() string { return n.URI() }

// IsOS reports whether the name describes an operating-system platform.
func (n Name) IsOS() bool { return n.Part == PartOS }

// splitUnescaped splits s on sep, honoring backslash escapes.
func splitUnescaped(s string, sep byte) []string {
	var (
		fields  []string
		cur     strings.Builder
		escaped bool
	)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			cur.WriteByte('\\')
			cur.WriteByte(c)
			escaped = false
		case c == '\\':
			escaped = true
		case c == sep:
			fields = append(fields, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if escaped {
		cur.WriteByte('\\')
	}
	fields = append(fields, cur.String())
	return fields
}

// decode22 lowercases and percent-decodes a 2.2 component. NVD data uses
// %20-style escapes sparingly; unknown escapes are preserved literally.
func decode22(s string) string {
	s = strings.ToLower(s)
	if !strings.Contains(s, "%") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if hi, ok1 := unhex(s[i+1]); ok1 {
				if lo, ok2 := unhex(s[i+2]); ok2 {
					b.WriteByte(hi<<4 | lo)
					i += 2
					continue
				}
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

const upperHex = "0123456789ABCDEF"

func encode22(s string) string {
	if !strings.ContainsAny(s, " %:") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '%', ':':
			b.WriteByte('%')
			b.WriteByte(upperHex[c>>4])
			b.WriteByte(upperHex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// decode23 removes backslash escapes and maps the 2.3 logical values: "*"
// (ANY) becomes the empty string and "-" (NA) is preserved as "-".
func decode23(s string) string {
	if s == "*" {
		return ""
	}
	if !strings.Contains(s, "\\") {
		return strings.ToLower(s)
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			b.WriteByte(s[i])
			continue
		}
		b.WriteByte(s[i])
	}
	return strings.ToLower(b.String())
}
