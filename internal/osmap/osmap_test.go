package osmap

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"osdiversity/internal/cpe"
)

func TestDistrosCount(t *testing.T) {
	ds := Distros()
	if len(ds) != NumDistros {
		t.Fatalf("Distros() returned %d, want %d", len(ds), NumDistros)
	}
	seen := make(map[Distro]bool, len(ds))
	for _, d := range ds {
		if d == DistroUnknown {
			t.Error("Distros() contains DistroUnknown")
		}
		if seen[d] {
			t.Errorf("Distros() contains %v twice", d)
		}
		seen[d] = true
	}
}

func TestFamilies(t *testing.T) {
	wantMembers := map[Family][]Distro{
		FamilyBSD:     {OpenBSD, NetBSD, FreeBSD},
		FamilySolaris: {OpenSolaris, Solaris},
		FamilyLinux:   {Debian, Ubuntu, RedHat},
		FamilyWindows: {Windows2000, Windows2003, Windows2008},
	}
	got := make(map[Family][]Distro)
	for _, d := range Distros() {
		got[d.Family()] = append(got[d.Family()], d)
	}
	if !reflect.DeepEqual(got, wantMembers) {
		t.Fatalf("families by Distro.Family = %v, want %v", got, wantMembers)
	}
}

func TestParseDistroRoundTrip(t *testing.T) {
	for _, d := range Distros() {
		got, err := ParseDistro(d.String())
		if err != nil {
			t.Fatalf("ParseDistro(%q): %v", d.String(), err)
		}
		if got != d {
			t.Fatalf("ParseDistro(%q) = %v, want %v", d.String(), got, d)
		}
	}
	if _, err := ParseDistro("BeOS"); err == nil {
		t.Error("ParseDistro(BeOS) succeeded")
	}
}

func TestHistoryEligible(t *testing.T) {
	elig := HistoryEligible()
	if len(elig) != 8 {
		t.Fatalf("HistoryEligible() has %d members, want 8", len(elig))
	}
	excluded := map[Distro]bool{Ubuntu: true, OpenSolaris: true, Windows2008: true}
	for _, d := range elig {
		if excluded[d] {
			t.Errorf("HistoryEligible() contains excluded %v", d)
		}
	}
}

func TestMakePair(t *testing.T) {
	p := MakePair(Windows2003, OpenBSD)
	if p.A != OpenBSD || p.B != Windows2003 {
		t.Fatalf("MakePair not normalized: %+v", p)
	}
	if p.String() != "OpenBSD-Windows2003" {
		t.Errorf("Pair.String() = %q", p.String())
	}
}

func TestMakePairPanicsOnSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakePair(d, d) did not panic")
		}
	}()
	MakePair(Debian, Debian)
}

func TestAllPairs(t *testing.T) {
	pairs := AllPairs()
	if len(pairs) != 55 {
		t.Fatalf("AllPairs() = %d pairs, want 55 (the paper's Table III row count)", len(pairs))
	}
	if pairs[0].String() != "OpenBSD-NetBSD" {
		t.Errorf("first pair %q, want OpenBSD-NetBSD (Table III order)", pairs[0])
	}
	if pairs[len(pairs)-1].String() != "Windows2003-Windows2008" {
		t.Errorf("last pair %q, want Windows2003-Windows2008", pairs[len(pairs)-1])
	}
	seen := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		if seen[p] {
			t.Errorf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestPairsOfNormalizes(t *testing.T) {
	f := func(i, j, k uint8) bool {
		ds := Distros()
		sel := []Distro{ds[int(i)%len(ds)], ds[int(j)%len(ds)], ds[int(k)%len(ds)]}
		uniq := map[Distro]bool{}
		var dedup []Distro
		for _, d := range sel {
			if !uniq[d] {
				uniq[d] = true
				dedup = append(dedup, d)
			}
		}
		pairs := PairsOf(dedup)
		want := len(dedup) * (len(dedup) - 1) / 2
		if len(pairs) != want {
			return false
		}
		for _, p := range pairs {
			if p.A >= p.B {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryCluster(t *testing.T) {
	r := NewRegistry()
	tests := []struct {
		uri  string
		want Distro
	}{
		{"cpe:/o:openbsd:openbsd:4.2", OpenBSD},
		{"cpe:/o:netbsd:netbsd:3.0", NetBSD},
		{"cpe:/o:freebsd:freebsd:6.0", FreeBSD},
		{"cpe:/o:sun:opensolaris", OpenSolaris},
		{"cpe:/o:sun:solaris:10", Solaris},
		{"cpe:/o:sun:sunos:5.8", Solaris},
		{"cpe:/o:oracle:solaris:10", Solaris},
		{"cpe:/o:debian:debian_linux:4.0", Debian},
		{"cpe:/o:debian:linux:3.1", Debian}, // the paper's duplicate registration
		{"cpe:/o:canonical:ubuntu_linux:9.04", Ubuntu},
		{"cpe:/o:redhat:enterprise_linux:5", RedHat},
		{"cpe:/o:redhat:linux:7.3", RedHat},
		{"cpe:/o:microsoft:windows_2000::sp4", Windows2000},
		{"cpe:/o:microsoft:windows_2003_server", Windows2003},
		{"cpe:/o:microsoft:windows_server_2008", Windows2008},
	}
	for _, tt := range tests {
		got, ok := r.Cluster(cpe.MustParse(tt.uri))
		if !ok || got != tt.want {
			t.Errorf("Cluster(%s) = (%v, %v), want (%v, true)", tt.uri, got, ok, tt.want)
		}
	}
}

func TestRegistryUnclustered(t *testing.T) {
	r := NewRegistry()
	xp := cpe.MustParse("cpe:/o:microsoft:windows_xp")
	if _, ok := r.Cluster(xp); ok {
		t.Error("windows_xp clustered; must stay outside the 11 distributions")
	}
}

func TestRegistryAliasCountMatchesPaper(t *testing.T) {
	r := NewRegistry()
	if got := len(r.aliases); got != 64 {
		t.Fatalf("registry clusters %d CPEs, want the paper's 64", got)
	}
}

func TestEveryDistroHasAliasesAndCanonical(t *testing.T) {
	r := NewRegistry()
	aliases := make(map[Distro]int)
	for _, d := range r.aliases {
		aliases[d]++
	}
	for _, d := range Distros() {
		if aliases[d] == 0 {
			t.Errorf("%v has no aliases", d)
		}
		canon := r.CanonicalName(d)
		if canon.Product == "" {
			t.Errorf("%v has no canonical CPE name", d)
			continue
		}
		if got, ok := r.Cluster(canon); !ok || got != d {
			t.Errorf("canonical name %s of %v does not cluster back", canon, d)
		}
	}
}

func TestReleases(t *testing.T) {
	r := NewRegistry()
	for _, d := range Distros() {
		rel := r.Releases(d)
		if len(rel) == 0 {
			t.Errorf("%v has no releases", d)
			continue
		}
		for i := 1; i < len(rel); i++ {
			if rel[i].Year < rel[i-1].Year {
				t.Errorf("%v releases not chronological: %v after %v", d, rel[i], rel[i-1])
			}
		}
		if rel[0].Year != d.FirstReleaseYear() && d != RedHat && d != NetBSD && d != FreeBSD {
			// RedHat/NetBSD/FreeBSD timelines intentionally start at the
			// paper's first annotated release, later than the true first ship.
			if rel[0].Year < d.FirstReleaseYear() {
				t.Errorf("%v first recorded release %d before first ship %d", d, rel[0].Year, d.FirstReleaseYear())
			}
		}
	}
}

func TestTableVIReleasesPresent(t *testing.T) {
	r := NewRegistry()
	for _, want := range []struct {
		d       Distro
		version string
		year    int
	}{
		{Debian, "2.1", 1999},
		{Debian, "3.0", 2002},
		{Debian, "4.0", 2007},
		{RedHat, "6.2*", 2000},
		{RedHat, "4.0", 2005},
		{RedHat, "5.0", 2007},
	} {
		i := slices.IndexFunc(r.Releases(want.d), func(rel Release) bool { return rel.Version == want.version })
		if i < 0 {
			t.Errorf("release %v%s missing (needed by Table VI)", want.d, want.version)
			continue
		}
		if rel := r.Releases(want.d)[i]; rel.Year != want.year {
			t.Errorf("release %v year = %d, want %d", rel, rel.Year, want.year)
		}
	}
}

func TestReleaseString(t *testing.T) {
	rel := Release{Distro: Debian, Version: "4.0", Year: 2007}
	if rel.String() != "Debian4.0" {
		t.Errorf("Release.String() = %q, want Debian4.0", rel.String())
	}
}

func TestZeroRegistry(t *testing.T) {
	var r *Registry
	if _, ok := r.Cluster(cpe.MustParse("cpe:/o:openbsd:openbsd")); ok {
		t.Error("nil registry clustered a name")
	}
}
