package cpe

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParse22(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    Name
		wantErr bool
	}{
		{
			name: "os with version",
			in:   "cpe:/o:openbsd:openbsd:4.2",
			want: Name{Part: PartOS, Vendor: "openbsd", Product: "openbsd", Version: "4.2"},
		},
		{
			name: "windows with update",
			in:   "cpe:/o:microsoft:windows_2000::sp4",
			want: Name{Part: PartOS, Vendor: "microsoft", Product: "windows_2000", Update: "sp4"},
		},
		{
			name: "application",
			in:   "cpe:/a:isc:bind:9.4.1",
			want: Name{Part: PartApplication, Vendor: "isc", Product: "bind", Version: "9.4.1"},
		},
		{
			name: "hardware",
			in:   "cpe:/h:cisco:router",
			want: Name{Part: PartHardware, Vendor: "cisco", Product: "router"},
		},
		{
			name: "all seven components",
			in:   "cpe:/o:redhat:enterprise_linux:5:ga:server:en",
			want: Name{Part: PartOS, Vendor: "redhat", Product: "enterprise_linux", Version: "5", Update: "ga", Edition: "server", Language: "en"},
		},
		{
			name: "uppercase normalized",
			in:   "cpe:/o:RedHat:Enterprise_Linux:5",
			want: Name{Part: PartOS, Vendor: "redhat", Product: "enterprise_linux", Version: "5"},
		},
		{
			name: "percent escape",
			in:   "cpe:/a:acme:net%20tool:1.0",
			want: Name{Part: PartApplication, Vendor: "acme", Product: "net tool", Version: "1.0"},
		},
		{name: "no prefix", in: "o:openbsd:openbsd", wantErr: true},
		{name: "bad part", in: "cpe:/x:openbsd:openbsd", wantErr: true},
		{name: "empty body", in: "cpe:/", wantErr: true},
		{name: "too many fields", in: "cpe:/o:a:b:c:d:e:f:g", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse22(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("Parse22(%q) = %+v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse22(%q): %v", tt.in, err)
			}
			if got != tt.want {
				t.Fatalf("Parse22(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestParse23(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    Name
		wantErr bool
	}{
		{
			name: "simple",
			in:   "cpe:2.3:o:openbsd:openbsd:4.2:*:*:*:*:*:*:*",
			want: Name{Part: PartOS, Vendor: "openbsd", Product: "openbsd", Version: "4.2"},
		},
		{
			name: "escaped colon in product",
			in:   `cpe:2.3:a:acme:tool\:kit:1.0:*:*:*:*:*:*:*`,
			want: Name{Part: PartApplication, Vendor: "acme", Product: "tool:kit", Version: "1.0"},
		},
		{
			name: "extended attrs folded into edition",
			in:   "cpe:2.3:o:microsoft:windows_2003:*:sp2:*:*:x64:*:*:*",
			want: Name{Part: PartOS, Vendor: "microsoft", Product: "windows_2003", Update: "sp2", Edition: "~~x64~~~"},
		},
		{name: "too few fields", in: "cpe:2.3:o:openbsd:openbsd", wantErr: true},
		{name: "wrong prefix", in: "cpe:2.4:o:a:b:*:*:*:*:*:*:*:*", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse23(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("Parse23(%q) = %+v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse23(%q): %v", tt.in, err)
			}
			if got != tt.want {
				t.Fatalf("Parse23(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseDispatch(t *testing.T) {
	if _, err := Parse("cpe:/o:debian:debian_linux:4.0"); err != nil {
		t.Errorf("Parse 2.2: %v", err)
	}
	if _, err := Parse("cpe:2.3:o:debian:debian_linux:4.0:*:*:*:*:*:*:*"); err != nil {
		t.Errorf("Parse 2.3: %v", err)
	}
	if _, err := Parse("garbage"); err == nil {
		t.Error("Parse(garbage) succeeded")
	}
}

func TestURITrimsTrailingEmpties(t *testing.T) {
	tests := []struct {
		n    Name
		want string
	}{
		{Name{Part: PartOS, Vendor: "openbsd", Product: "openbsd"}, "cpe:/o:openbsd:openbsd"},
		{Name{Part: PartOS, Vendor: "openbsd", Product: "openbsd", Version: "4.2"}, "cpe:/o:openbsd:openbsd:4.2"},
		{Name{Part: PartOS, Vendor: "microsoft", Product: "windows_2000", Update: "sp4"}, "cpe:/o:microsoft:windows_2000::sp4"},
	}
	for _, tt := range tests {
		if got := tt.n.URI(); got != tt.want {
			t.Errorf("URI() = %q, want %q", got, tt.want)
		}
	}
}

func TestRoundTrip22(t *testing.T) {
	inputs := []string{
		"cpe:/o:openbsd:openbsd:4.2",
		"cpe:/o:microsoft:windows_2000::sp4",
		"cpe:/o:redhat:enterprise_linux:5:ga:server:en",
		"cpe:/a:isc:bind:9.4.1",
	}
	for _, in := range inputs {
		n, err := Parse22(in)
		if err != nil {
			t.Fatalf("Parse22(%q): %v", in, err)
		}
		if got := n.URI(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Any Name built from the restricted component alphabet must survive
	// URI -> Parse22 and Formatted -> Parse23 unchanged.
	comp := func(seed uint32, allowEmpty bool) string {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789_."
		n := int(seed % 8)
		if !allowEmpty && n == 0 {
			n = 1
		}
		var b strings.Builder
		for i := 0; i < n; i++ {
			seed = seed*1664525 + 1013904223
			b.WriteByte(alpha[seed%uint32(len(alpha))])
		}
		s := b.String()
		// Avoid pure-dot components, which are legal but degenerate.
		if strings.Trim(s, ".") == "" {
			return strings.ReplaceAll(s, ".", "x")
		}
		return s
	}
	f := func(v, p, ver uint32, partSel uint8) bool {
		parts := []Part{PartHardware, PartOS, PartApplication}
		n := Name{
			Part:    parts[int(partSel)%len(parts)],
			Vendor:  comp(v, false),
			Product: comp(p, false),
			Version: comp(ver, true),
		}
		back22, err := Parse22(n.URI())
		if err != nil || back22 != n {
			return false
		}
		back23, err := Parse23(n.Formatted())
		return err == nil && back23 == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Formatted renders the name in the 2.3 formatted-string binding,
// Parse23's inverse in TestRoundTripProperty (the study only reads
// names). Empty components render as "*" (ANY).
func (n Name) Formatted() string {
	star := func(s string) string {
		if s == "" {
			return "*"
		}
		return encode23(s)
	}
	return strings.Join([]string{
		"cpe:2.3", n.Part.String(), star(n.Vendor), star(n.Product), star(n.Version),
		star(n.Update), star(n.Edition), star(n.Language), "*", "*", "*", "*",
	}, ":")
}

// encode23 escapes the characters the 2.3 binding quotes.
func encode23(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ':', '*', '?', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func TestIsOS(t *testing.T) {
	if !MustParse("cpe:/o:sun:solaris:10").IsOS() {
		t.Error("IsOS() = false for /o name")
	}
	if MustParse("cpe:/a:isc:bind").IsOS() {
		t.Error("IsOS() = true for /a name")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on malformed input did not panic")
		}
	}()
	MustParse("cpe:/x:bad")
}
