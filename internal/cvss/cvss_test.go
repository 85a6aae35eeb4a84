package cvss

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// Reference scores computed with the official CVSS v2 equations (and
// cross-checked against NVD's published scores for these well-known CVEs).
func TestBaseScoreReference(t *testing.T) {
	tests := []struct {
		name   string
		vector string
		want   float64
	}{
		// CVE-2008-1447 (DNS cache poisoning).
		{"partial integrity network", "AV:N/AC:L/Au:N/C:N/I:P/A:N", 5.0},
		// CVE-2008-4609 (TCP state-table DoS).
		{"complete availability medium", "AV:N/AC:M/Au:N/C:N/I:N/A:C", 7.1},
		// Classic remote root.
		{"full remote compromise", "AV:N/AC:L/Au:N/C:C/I:C/A:C", 10.0},
		// Classic local root.
		{"full local compromise", "AV:L/AC:L/Au:N/C:C/I:C/A:C", 7.2},
		{"no impact scores zero", "AV:N/AC:L/Au:N/C:N/I:N/A:N", 0.0},
		{"local partial dos", "AV:L/AC:L/Au:N/C:N/I:N/A:P", 2.1},
		{"adjacent partial trio", "AV:A/AC:L/Au:N/C:P/I:P/A:P", 5.8},
		{"authenticated network", "AV:N/AC:L/Au:S/C:P/I:P/A:P", 6.5},
		{"hard local", "AV:L/AC:H/Au:N/C:C/I:C/A:C", 6.2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := Parse(tt.vector)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.vector, err)
			}
			if got := v.BaseScore(); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("BaseScore(%s) = %.1f, want %.1f", tt.vector, got, tt.want)
			}
		})
	}
}

func TestParseForms(t *testing.T) {
	want := Vector{AV: AccessNetwork, AC: ComplexityLow, Au: AuthNone, C: ImpactPartial, I: ImpactPartial, A: ImpactPartial}
	for _, in := range []string{
		"AV:N/AC:L/Au:N/C:P/I:P/A:P",
		"(AV:N/AC:L/Au:N/C:P/I:P/A:P)",
		"  (AV:N/AC:L/Au:N/C:P/I:P/A:P)  ",
	} {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %+v, want %+v", in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"AV:N",                           // missing metrics
		"AV:N/AC:L/Au:N/C:P/I:P",         // missing A
		"AV:X/AC:L/Au:N/C:P/I:P/A:P",     // bad AV
		"AV:N/AC:X/Au:N/C:P/I:P/A:P",     // bad AC
		"AV:N/AC:L/Au:X/C:P/I:P/A:P",     // bad Au
		"AV:N/AC:L/Au:N/C:X/I:P/A:P",     // bad C
		"AV:N/AC:L/Au:N/C:P/I:P/A:P/E:F", // temporal metric rejected
		"AV:NN/AC:L/Au:N/C:P/I:P/A:P",    // long value
		"AV=N/AC:L/Au:N/C:P/I:P/A:P",     // bad separator
		"av:N/AC:L/Au:N/C:P/I:P/A:P",     // lowercase metric name
	}
	for _, in := range bad {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", in, v)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	vectors := allVectors()
	for _, v := range vectors {
		back, err := Parse(v.String())
		if err != nil {
			t.Fatalf("Parse(String(%+v)): %v", v, err)
		}
		if back != v {
			t.Fatalf("round trip changed %+v to %+v", v, back)
		}
	}
}

// allVectors enumerates the full 729-vector metric space.
func allVectors() []Vector {
	var out []Vector
	for _, av := range []AccessVector{AccessLocal, AccessAdjacentNetwork, AccessNetwork} {
		for _, ac := range []AccessComplexity{ComplexityHigh, ComplexityMedium, ComplexityLow} {
			for _, au := range []Authentication{AuthMultiple, AuthSingle, AuthNone} {
				for _, c := range []Impact{ImpactNone, ImpactPartial, ImpactComplete} {
					for _, i := range []Impact{ImpactNone, ImpactPartial, ImpactComplete} {
						for _, a := range []Impact{ImpactNone, ImpactPartial, ImpactComplete} {
							out = append(out, Vector{AV: av, AC: ac, Au: au, C: c, I: i, A: a})
						}
					}
				}
			}
		}
	}
	return out
}

func TestScoreBounds(t *testing.T) {
	for _, v := range allVectors() {
		s := v.BaseScore()
		if s < 0 || s > 10 {
			t.Fatalf("BaseScore(%s) = %v out of [0,10]", v, s)
		}
		// One decimal place by construction.
		if math.Abs(s*10-math.Round(s*10)) > 1e-9 {
			t.Fatalf("BaseScore(%s) = %v not rounded to one decimal", v, s)
		}
	}
}

func TestScoreMonotonicInAccessVector(t *testing.T) {
	// Widening attacker reach must never lower the score, holding the
	// other metrics fixed.
	for _, base := range allVectors() {
		if base.AV != AccessLocal {
			continue
		}
		adj, net := base, base
		adj.AV = AccessAdjacentNetwork
		net.AV = AccessNetwork
		if !(base.BaseScore() <= adj.BaseScore() && adj.BaseScore() <= net.BaseScore()) {
			t.Fatalf("score not monotone in AV for %s: L=%v A=%v N=%v",
				base, base.BaseScore(), adj.BaseScore(), net.BaseScore())
		}
	}
}

func TestZeroImpactScoresZero(t *testing.T) {
	f := func(avSel, acSel, auSel uint8) bool {
		v := Vector{
			AV: []AccessVector{AccessLocal, AccessAdjacentNetwork, AccessNetwork}[avSel%3],
			AC: []AccessComplexity{ComplexityHigh, ComplexityMedium, ComplexityLow}[acSel%3],
			Au: []Authentication{AuthMultiple, AuthSingle, AuthNone}[auSel%3],
			C:  ImpactNone, I: ImpactNone, A: ImpactNone,
		}
		return v.BaseScore() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRemote(t *testing.T) {
	if !AccessNetwork.Remote() || !AccessAdjacentNetwork.Remote() {
		t.Error("network vectors must be remote")
	}
	if AccessLocal.Remote() {
		t.Error("local vector must not be remote")
	}
}

func TestMetricStrings(t *testing.T) {
	pairs := []struct {
		got, want string
	}{
		{AccessNetwork.String(), "NETWORK"},
		{AccessAdjacentNetwork.String(), "ADJACENT_NETWORK"},
		{AccessLocal.String(), "LOCAL"},
		{ComplexityHigh.String(), "HIGH"},
		{AuthNone.String(), "NONE"},
		{ImpactComplete.String(), "COMPLETE"},
		{AccessVector(0).String(), "UNKNOWN"},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("String() = %q, want %q", p.got, p.want)
		}
	}
}

func TestIsZero(t *testing.T) {
	var zero Vector
	if !zero.IsZero() {
		t.Error("zero vector not reported zero")
	}
	if MustParse("AV:N/AC:L/Au:N/C:P/I:P/A:P").IsZero() {
		t.Error("parsed vector reported zero")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on malformed vector did not panic")
		}
	}()
	MustParse("AV:N")
}

func TestParseNeverPanics(t *testing.T) {
	// Deterministic sweep of mangled vectors through Parse to check it
	// never panics, regardless of outcome.
	base := "AV:N/AC:L/Au:N/C:P/I:P/A:P"
	for i := 0; i < len(base); i++ {
		for _, r := range []string{"", "X", ":", "/", "("} {
			mangled := base[:i] + r + base[i+1:]
			Parse(mangled) // must not panic
		}
	}
	Parse(strings.Repeat("/", 100))
	Parse(strings.Repeat("AV:N/", 50))
}
