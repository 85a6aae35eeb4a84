// Package osmap is the operating-system product registry of the study.
//
// The paper collects vulnerabilities for 64 Common Platform Enumerations
// and clusters them, by manual analysis, into 11 OS distributions grouped
// in four families (BSD, Solaris, Linux, Windows). This package encodes
// that clustering: the distribution and family enums, the alias table that
// maps NVD (vendor, product) pairs onto distributions — including the
// duplicate spellings the paper calls out, such as ("linux","debian") vs
// ("debian_linux","debian") — and the release timelines that annotate
// Figure 2 and drive the per-release analysis of Table VI.
package osmap

import (
	"fmt"
	"sort"

	"osdiversity/internal/cpe"
)

// Distro identifies one of the 11 OS distributions of the study.
type Distro int

// The 11 distributions, in the paper's presentation order.
const (
	DistroUnknown Distro = iota
	OpenBSD
	NetBSD
	FreeBSD
	OpenSolaris
	Solaris
	Debian
	Ubuntu
	RedHat
	Windows2000
	Windows2003
	Windows2008
)

// NumDistros is the number of real distributions (excluding DistroUnknown).
const NumDistros = 11

// syntheticBase is the first Distro value reserved for synthetic
// distributions (see SyntheticDistro). The gap above the 11 studied
// distributions leaves room for future real clusters.
const syntheticBase Distro = 64

// maxSyntheticDistros bounds the synthetic universe so masks and pair
// tables stay within sane memory.
const maxSyntheticDistros = 1024

// SyntheticDistro returns the i-th synthetic distribution (i >= 0).
// Synthetic distributions model the "modern NVD" universe: they have
// generated names ("SynOS000", ...), round-robin families, staggered
// first releases, and exist only in registries built by
// NewSyntheticRegistry.
func SyntheticDistro(i int) Distro {
	if i < 0 || i >= maxSyntheticDistros {
		panic(fmt.Sprintf("osmap: synthetic distro index %d out of range", i))
	}
	return syntheticBase + Distro(i)
}

// IsSynthetic reports whether the distribution is a synthetic one.
func (d Distro) IsSynthetic() bool {
	return d >= syntheticBase && d < syntheticBase+maxSyntheticDistros
}

// Distros returns the 11 distributions in presentation order.
func Distros() []Distro {
	return []Distro{
		OpenBSD, NetBSD, FreeBSD, OpenSolaris, Solaris,
		Debian, Ubuntu, RedHat, Windows2000, Windows2003, Windows2008,
	}
}

// String returns the paper's display name for the distribution.
func (d Distro) String() string {
	switch d {
	case OpenBSD:
		return "OpenBSD"
	case NetBSD:
		return "NetBSD"
	case FreeBSD:
		return "FreeBSD"
	case OpenSolaris:
		return "OpenSolaris"
	case Solaris:
		return "Solaris"
	case Debian:
		return "Debian"
	case Ubuntu:
		return "Ubuntu"
	case RedHat:
		return "RedHat"
	case Windows2000:
		return "Windows2000"
	case Windows2003:
		return "Windows2003"
	case Windows2008:
		return "Windows2008"
	default:
		if d.IsSynthetic() {
			return fmt.Sprintf("SynOS%03d", int(d-syntheticBase))
		}
		return "Unknown"
	}
}

// ParseDistro resolves a display name (case-sensitive, as printed by
// String) back to a Distro. Synthetic names ("SynOS007") resolve to the
// corresponding synthetic distribution.
func ParseDistro(s string) (Distro, error) {
	for _, d := range Distros() {
		if d.String() == s {
			return d, nil
		}
	}
	var i int
	if n, err := fmt.Sscanf(s, "SynOS%03d", &i); err == nil && n == 1 &&
		i >= 0 && i < maxSyntheticDistros && s == SyntheticDistro(i).String() {
		return SyntheticDistro(i), nil
	}
	return DistroUnknown, fmt.Errorf("osmap: unknown distribution %q", s)
}

// Family identifies one of the four OS families of the study.
type Family int

// The four families.
const (
	FamilyUnknown Family = iota
	FamilyBSD
	FamilySolaris
	FamilyLinux
	FamilyWindows
)

// Families returns the four families in the paper's presentation order.
func Families() []Family {
	return []Family{FamilySolaris, FamilyBSD, FamilyWindows, FamilyLinux}
}

// String returns the family display name.
func (f Family) String() string {
	switch f {
	case FamilyBSD:
		return "BSD"
	case FamilySolaris:
		return "Solaris"
	case FamilyLinux:
		return "Linux"
	case FamilyWindows:
		return "Windows"
	default:
		return "Unknown"
	}
}

// Family returns the family the distribution belongs to.
func (d Distro) Family() Family {
	switch d {
	case OpenBSD, NetBSD, FreeBSD:
		return FamilyBSD
	case OpenSolaris, Solaris:
		return FamilySolaris
	case Debian, Ubuntu, RedHat:
		return FamilyLinux
	case Windows2000, Windows2003, Windows2008:
		return FamilyWindows
	default:
		if d.IsSynthetic() {
			// Synthetic distributions rotate through the four families so
			// family-aware analyses stay meaningful at any universe size.
			return Families()[int(d-syntheticBase)%len(Families())]
		}
		return FamilyUnknown
	}
}

// FirstReleaseYear returns the year the distribution first shipped, per
// the major-release annotations on the paper's Figure 2.
func (d Distro) FirstReleaseYear() int {
	switch d {
	case OpenBSD:
		return 1996 // OpenBSD 1.2
	case NetBSD:
		return 1993 // NetBSD 0.8
	case FreeBSD:
		return 1993 // FreeBSD 1.0
	case OpenSolaris:
		return 2008 // OpenSolaris 2008.05
	case Solaris:
		return 1992 // Solaris 2.1
	case Debian:
		return 1996 // Debian 1.1
	case Ubuntu:
		return 2004 // Ubuntu 4.10
	case RedHat:
		return 1995 // Red Hat Linux 2.0 era; paper's graph starts at 6.0/1999
	case Windows2000:
		return 2000
	case Windows2003:
		return 2003
	case Windows2008:
		return 2008
	default:
		if d.IsSynthetic() {
			// Stagger synthetic launches through the 1993-2008 window.
			return 1993 + int(d-syntheticBase)%16
		}
		return 0
	}
}

// HistoryEligible returns the eight distributions the paper admits into
// the history/observed experiment (Table V): Ubuntu, OpenSolaris and
// Windows 2008 are excluded "due to lack of meaningful data during the
// history period" (they first shipped in or after 2004).
func HistoryEligible() []Distro {
	return []Distro{OpenBSD, NetBSD, FreeBSD, Solaris, Debian, RedHat, Windows2000, Windows2003}
}

// Pair is an unordered pair of distributions, normalized so that A's
// presentation order precedes B's. Use MakePair to construct one.
type Pair struct {
	A, B Distro
}

// MakePair builds the normalized pair for two distinct distributions.
// It panics if a == b, because the study never pairs an OS with itself.
func MakePair(a, b Distro) Pair {
	if a == b {
		panic(fmt.Sprintf("osmap: degenerate pair %v-%v", a, b))
	}
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// String renders the pair the way the paper prints it, e.g.
// "OpenBSD-NetBSD".
func (p Pair) String() string { return p.A.String() + "-" + p.B.String() }

// AllPairs returns the 55 unordered pairs over the 11 distributions, in
// the paper's Table III row order (outer loop in presentation order,
// inner loop over later distributions). Only tests call it, to walk
// Table III (core, corpus, paperdata, vulndb and the root benchmarks).
func AllPairs() []Pair {
	ds := Distros()
	out := make([]Pair, 0, len(ds)*(len(ds)-1)/2)
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			out = append(out, Pair{A: ds[i], B: ds[j]})
		}
	}
	return out
}

// PairsOf returns all unordered pairs over the given distributions, in
// normalized order.
func PairsOf(ds []Distro) []Pair {
	sorted := append([]Distro(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]Pair, 0, len(sorted)*(len(sorted)-1)/2)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			out = append(out, MakePair(sorted[i], sorted[j]))
		}
	}
	return out
}

// Release is a shipped version of a distribution, used by the
// Figure 2 annotations and the Table VI per-release analysis.
type Release struct {
	Distro  Distro
	Version string
	Year    int
}

// String renders the release the way Table VI prints it, e.g. "Debian4.0".
func (r Release) String() string { return r.Distro.String() + r.Version }

type aliasKey struct {
	vendor  string
	product string
}

// Registry resolves NVD product names to distributions and records
// release timelines. It also owns the distro universe of a study: the
// ordered distribution list analyses iterate and index bitmasks by.
// Construct with NewRegistry (the paper's 11-distro universe) or
// NewSyntheticRegistry (an arbitrarily wide "modern NVD" universe); the
// zero value has no aliases and resolves nothing.
type Registry struct {
	aliases   map[aliasKey]Distro
	releases  map[Distro][]Release
	canonical map[Distro]cpe.Name
	distros   []Distro // the universe, in presentation order
}

// NewRegistry returns the study's registry: the full alias table covering
// the 64 CPEs the paper clustered, the extra well-known OS products that
// remain outside the 11 clusters, and the release timelines.
func NewRegistry() *Registry {
	r := &Registry{
		aliases:   make(map[aliasKey]Distro, 64),
		releases:  make(map[Distro][]Release, NumDistros),
		canonical: make(map[Distro]cpe.Name, NumDistros),
		distros:   Distros(),
	}
	for _, a := range defaultAliases {
		r.aliases[aliasKey{a.vendor, a.product}] = a.distro
		if a.canonical {
			r.canonical[a.distro] = cpe.Name{Part: cpe.PartOS, Vendor: a.vendor, Product: a.product}
		}
	}
	for _, rel := range defaultReleases {
		r.releases[rel.Distro] = append(r.releases[rel.Distro], rel)
	}
	for d := range r.releases {
		rel := r.releases[d]
		sort.Slice(rel, func(i, j int) bool { return rel[i].Year < rel[j].Year })
	}
	return r
}

// NewSyntheticRegistry returns a registry over an n-distro universe
// modeling a modern, wider NVD. The first min(n, 11) distributions are
// the paper's real clusters with their full alias tables; the remainder
// are synthetic distributions, each with one canonical (vendor, product)
// registration, one duplicate spelling (mirroring NVD's messy vendor
// strings), and a three-release timeline. n must be at least 2.
func NewSyntheticRegistry(n int) *Registry {
	if n < 2 {
		panic(fmt.Sprintf("osmap: synthetic universe needs at least 2 distros, got %d", n))
	}
	if n > maxSyntheticDistros {
		panic(fmt.Sprintf("osmap: synthetic universe capped at %d distros, got %d", maxSyntheticDistros, n))
	}
	r := NewRegistry()
	if n <= NumDistros {
		r.distros = Distros()[:n]
		return r
	}
	for i := 0; NumDistros+i < n; i++ {
		d := SyntheticDistro(i)
		canon := cpe.Name{
			Part:    cpe.PartOS,
			Vendor:  fmt.Sprintf("synvendor%03d", i),
			Product: fmt.Sprintf("synos%03d", i),
		}
		r.aliases[aliasKey{canon.Vendor, canon.Product}] = d
		r.aliases[aliasKey{canon.Vendor + "_inc", canon.Product}] = d
		r.canonical[d] = canon
		first := d.FirstReleaseYear()
		r.releases[d] = []Release{
			{d, "1.0", first},
			{d, "2.0", first + 5},
			{d, "3.0", first + 10},
		}
		r.distros = append(r.distros, d)
	}
	return r
}

// Distros returns the registry's distro universe in presentation order.
// The default registry's universe is the paper's 11 distributions; the
// returned slice is a copy.
func (r *Registry) Distros() []Distro {
	if r == nil || len(r.distros) == 0 {
		return Distros()
	}
	return append([]Distro(nil), r.distros...)
}

// Cluster maps a CPE name to its distribution. The second result is false
// when the product is not one of the 64 clustered CPEs.
func (r *Registry) Cluster(n cpe.Name) (Distro, bool) {
	if r == nil || r.aliases == nil {
		return DistroUnknown, false
	}
	d, ok := r.aliases[aliasKey{n.Vendor, n.Product}]
	return d, ok
}

// CanonicalName returns the canonical CPE name used when generating feed
// entries for the distribution.
func (r *Registry) CanonicalName(d Distro) cpe.Name {
	if r == nil {
		return cpe.Name{}
	}
	return r.canonical[d]
}

// Releases returns the recorded releases of a distribution in
// chronological order. The returned slice is shared; callers must not
// mutate it.
func (r *Registry) Releases(d Distro) []Release {
	return r.releases[d]
}

type alias struct {
	vendor    string
	product   string
	distro    Distro
	canonical bool
}

// defaultAliases is the 64-CPE clustering. Vendors and products follow
// NVD's actual spellings of the era, including the duplicated Debian
// registrations the paper highlights in §III.
var defaultAliases = []alias{
	// BSD family.
	{"openbsd", "openbsd", OpenBSD, true},
	{"openbsd", "openssh", OpenBSD, false}, // bundled-by-default spelling seen on old entries
	{"netbsd", "netbsd", NetBSD, true},
	{"netbsd", "netbsd_current", NetBSD, false},
	{"freebsd", "freebsd", FreeBSD, true},
	{"freebsd", "freebsd_stable", FreeBSD, false},
	{"freebsd", "freebsd_current", FreeBSD, false},
	{"bsdi", "bsd_os", FreeBSD, false}, // folded per commercial-BSD handling

	// Solaris family.
	{"sun", "opensolaris", OpenSolaris, true},
	{"sun", "solaris_express", OpenSolaris, false},
	{"opensolaris", "opensolaris", OpenSolaris, false},
	{"sun", "solaris", Solaris, true},
	{"sun", "sunos", Solaris, false},
	{"oracle", "solaris", Solaris, false},
	{"sun", "solaris_x86", Solaris, false},
	{"sun", "solaris_sparc", Solaris, false},
	{"sun", "trusted_solaris", Solaris, false},

	// Linux family: Debian's two registrations, Ubuntu's three, RedHat's
	// classic and enterprise lines.
	{"debian", "debian_linux", Debian, true},
	{"debian", "linux", Debian, false},
	{"debian", "gnu_linux", Debian, false},
	{"canonical", "ubuntu_linux", Ubuntu, true},
	{"ubuntu", "ubuntu_linux", Ubuntu, false},
	{"ubuntu", "linux", Ubuntu, false},
	{"canonical", "ubuntu", Ubuntu, false},
	{"redhat", "enterprise_linux", RedHat, true},
	{"redhat", "linux", RedHat, false},
	{"redhat", "redhat_linux", RedHat, false},
	{"redhat", "enterprise_linux_server", RedHat, false},
	{"redhat", "enterprise_linux_desktop", RedHat, false},
	{"redhat", "enterprise_linux_workstation", RedHat, false},
	{"redhat", "linux_advanced_workstation", RedHat, false},
	{"redhat", "fedora_core", RedHat, false}, // folded: RHEL tracker treats as upstream

	// Windows server family.
	{"microsoft", "windows_2000", Windows2000, true},
	{"microsoft", "windows_2000_server", Windows2000, false},
	{"microsoft", "windows_2000_advanced_server", Windows2000, false},
	{"microsoft", "windows_2000_datacenter_server", Windows2000, false},
	{"microsoft", "windows_2000_professional", Windows2000, false},
	{"microsoft", "windows_2000_terminal_services", Windows2000, false},
	{"microsoft", "windows_2003_server", Windows2003, true},
	{"microsoft", "windows_server_2003", Windows2003, false},
	{"microsoft", "windows_2003_server_r2", Windows2003, false},
	{"microsoft", "windows_2003_server_enterprise", Windows2003, false},
	{"microsoft", "windows_2003_server_datacenter", Windows2003, false},
	{"microsoft", "windows_2003_server_web", Windows2003, false},
	{"microsoft", "windows_server_2008", Windows2008, true},
	{"microsoft", "windows_2008", Windows2008, false},
	{"microsoft", "windows_server_2008_r2", Windows2008, false},
	{"microsoft", "windows_server_2008_core", Windows2008, false},

	// Less common spellings NVD used across the 2002-2010 feeds; each maps
	// into one of the 11 clusters.
	{"open_bsd", "openbsd", OpenBSD, false},
	{"net_bsd", "netbsd", NetBSD, false},
	{"free_bsd", "freebsd", FreeBSD, false},
	{"sun_microsystems", "solaris", Solaris, false},
	{"sun_microsystems", "sunos", Solaris, false},
	{"debian_project", "debian_linux", Debian, false},
	{"software_in_the_public_interest", "debian_linux", Debian, false},
	{"canonical_ltd", "ubuntu_linux", Ubuntu, false},
	{"red_hat", "enterprise_linux", RedHat, false},
	{"red_hat", "linux", RedHat, false},
	{"microsoft_corporation", "windows_2000", Windows2000, false},
	{"microsoft_corporation", "windows_2003_server", Windows2003, false},
	{"microsoft_corporation", "windows_server_2008", Windows2008, false},
	{"oracle", "opensolaris", OpenSolaris, false},
	{"freebsd_project", "freebsd", FreeBSD, false},
	{"the_netbsd_foundation", "netbsd", NetBSD, false},
}

// defaultReleases transcribes the major-release annotations of the
// paper's Figure 2 plus the releases Table VI analyzes.
var defaultReleases = []Release{
	{OpenBSD, "1.2", 1996},
	{OpenBSD, "3.1", 2002},
	{OpenBSD, "3.5", 2004},
	{NetBSD, "1.0", 1994},
	{NetBSD, "1.6", 2002},
	{NetBSD, "2.0", 2004},
	{NetBSD, "3.0.1", 2006},
	{NetBSD, "4.0", 2007},
	{FreeBSD, "3.0", 1998},
	{FreeBSD, "4.0", 2000},
	{FreeBSD, "5.0", 2003},
	{FreeBSD, "6.0", 2005},
	{FreeBSD, "7.0", 2008},
	{FreeBSD, "8.0", 2009},
	{OpenSolaris, "2008.05", 2008},
	{OpenSolaris, "2009.06", 2009},
	{Solaris, "2.1", 1992},
	{Solaris, "7", 1998},
	{Solaris, "8", 2000},
	{Solaris, "9", 2002},
	{Solaris, "10", 2005},
	{Debian, "1.1", 1996},
	{Debian, "2.1", 1999},
	{Debian, "2.2", 2000},
	{Debian, "3.0", 2002},
	{Debian, "3.1", 2005},
	{Debian, "4.0", 2007},
	{Debian, "5.0", 2009},
	{Ubuntu, "4.10", 2004},
	{Ubuntu, "5.04", 2005},
	{Ubuntu, "9.04", 2009},
	{RedHat, "6.0", 1999},
	{RedHat, "6.2*", 2000}, // classic Red Hat Linux 6.2 (the * follows Table VI)
	{RedHat, "7", 2000},
	{RedHat, "3", 2003}, // RHEL 3
	{RedHat, "4.0", 2005},
	{RedHat, "5.0", 2007},
	{RedHat, "5.4", 2009},
	{Windows2000, "2000", 2000},
	{Windows2000, "SP4", 2003},
	{Windows2003, "2003", 2003},
	{Windows2003, "SP1", 2005},
	{Windows2003, "SP2", 2007},
	{Windows2008, "2008", 2008},
	{Windows2008, "SP2", 2009},
}
