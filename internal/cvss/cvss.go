// Package cvss implements the CVSS version 2 base metrics, which is the
// scoring system attached to every NVD entry in the period the paper
// studies (1994–2010).
//
// The paper uses a single CVSS field — CVSS_ACCESS_VECTOR — to decide
// whether a vulnerability is remotely exploitable ("Network" or "Adjacent
// Network") for its Isolated Thin Server filter. We implement the complete
// base metric group anyway, because the generated feeds carry full vectors
// and downstream consumers (attack simulation, reporting) use the scores.
package cvss

import (
	"fmt"
	"math"
	"strings"
)

// AccessVector describes from where a vulnerability is exploitable.
type AccessVector byte

// Access vector values, in increasing order of attacker reach.
const (
	AccessLocal           AccessVector = 'L'
	AccessAdjacentNetwork AccessVector = 'A'
	AccessNetwork         AccessVector = 'N'
)

// Remote reports whether the vulnerability can be exploited without local
// access. This is exactly the paper's "No Local" criterion: CVSS access
// vector "Network" or "Adjacent Network".
func (v AccessVector) Remote() bool { return v == AccessNetwork || v == AccessAdjacentNetwork }

// String returns the NVD feed spelling of the access vector.
func (v AccessVector) String() string {
	switch v {
	case AccessLocal:
		return "LOCAL"
	case AccessAdjacentNetwork:
		return "ADJACENT_NETWORK"
	case AccessNetwork:
		return "NETWORK"
	}
	return "UNKNOWN"
}

func (v AccessVector) score() float64 {
	switch v {
	case AccessLocal:
		return 0.395
	case AccessAdjacentNetwork:
		return 0.646
	default:
		return 1.0
	}
}

// AccessComplexity describes how hard the attack is to mount.
type AccessComplexity byte

// Access complexity values.
const (
	ComplexityHigh   AccessComplexity = 'H'
	ComplexityMedium AccessComplexity = 'M'
	ComplexityLow    AccessComplexity = 'L'
)

// String returns the NVD feed spelling of the access complexity.
func (c AccessComplexity) String() string {
	switch c {
	case ComplexityHigh:
		return "HIGH"
	case ComplexityMedium:
		return "MEDIUM"
	case ComplexityLow:
		return "LOW"
	}
	return "UNKNOWN"
}

func (c AccessComplexity) score() float64 {
	switch c {
	case ComplexityHigh:
		return 0.35
	case ComplexityMedium:
		return 0.61
	default:
		return 0.71
	}
}

// Authentication describes how many times an attacker must authenticate.
type Authentication byte

// Authentication values.
const (
	AuthMultiple Authentication = 'M'
	AuthSingle   Authentication = 'S'
	AuthNone     Authentication = 'N'
)

// String returns the NVD feed spelling of the authentication metric.
func (a Authentication) String() string {
	switch a {
	case AuthMultiple:
		return "MULTIPLE_INSTANCES"
	case AuthSingle:
		return "SINGLE_INSTANCE"
	case AuthNone:
		return "NONE"
	}
	return "UNKNOWN"
}

func (a Authentication) score() float64 {
	switch a {
	case AuthMultiple:
		return 0.45
	case AuthSingle:
		return 0.56
	default:
		return 0.704
	}
}

// Impact describes the degree of loss on one of the three security
// attributes (confidentiality, integrity, availability).
type Impact byte

// Impact values.
const (
	ImpactNone     Impact = 'N'
	ImpactPartial  Impact = 'P'
	ImpactComplete Impact = 'C'
)

// String returns the NVD feed spelling of an impact value.
func (i Impact) String() string {
	switch i {
	case ImpactNone:
		return "NONE"
	case ImpactPartial:
		return "PARTIAL"
	case ImpactComplete:
		return "COMPLETE"
	}
	return "UNKNOWN"
}

func (i Impact) score() float64 {
	switch i {
	case ImpactComplete:
		return 0.660
	case ImpactPartial:
		return 0.275
	default:
		return 0.0
	}
}

// Vector is a parsed CVSS v2 base vector.
//
// The zero Vector is recognizably invalid (all metrics unknown); IsZero
// reports that state. Construct vectors with Parse or with composite
// literals using the metric constants.
type Vector struct {
	AV AccessVector
	AC AccessComplexity
	Au Authentication
	C  Impact
	I  Impact
	A  Impact
}

// IsZero reports whether v is the zero vector (no metrics set).
func (v Vector) IsZero() bool { return v == Vector{} }

// Parse parses a base vector in the canonical parenthesized or bare form,
// e.g. "(AV:N/AC:L/Au:N/C:P/I:P/A:P)" or "AV:L/AC:H/Au:S/C:C/I:C/A:C".
func Parse(s string) (Vector, error) {
	orig := s
	s = strings.TrimPrefix(strings.TrimSuffix(strings.TrimSpace(s), ")"), "(")
	var v Vector
	var seen [6]bool
	for _, field := range strings.Split(s, "/") {
		name, val, ok := strings.Cut(field, ":")
		if !ok || len(val) != 1 {
			return Vector{}, fmt.Errorf("cvss: malformed metric %q in %q", field, orig)
		}
		c := val[0]
		switch name {
		case "AV":
			switch AccessVector(c) {
			case AccessLocal, AccessAdjacentNetwork, AccessNetwork:
				v.AV, seen[0] = AccessVector(c), true
			default:
				return Vector{}, fmt.Errorf("cvss: bad AV value %q in %q", val, orig)
			}
		case "AC":
			switch AccessComplexity(c) {
			case ComplexityHigh, ComplexityMedium, ComplexityLow:
				v.AC, seen[1] = AccessComplexity(c), true
			default:
				return Vector{}, fmt.Errorf("cvss: bad AC value %q in %q", val, orig)
			}
		case "Au":
			switch Authentication(c) {
			case AuthMultiple, AuthSingle, AuthNone:
				v.Au, seen[2] = Authentication(c), true
			default:
				return Vector{}, fmt.Errorf("cvss: bad Au value %q in %q", val, orig)
			}
		case "C", "I", "A":
			switch Impact(c) {
			case ImpactNone, ImpactPartial, ImpactComplete:
			default:
				return Vector{}, fmt.Errorf("cvss: bad %s value %q in %q", name, val, orig)
			}
			switch name {
			case "C":
				v.C, seen[3] = Impact(c), true
			case "I":
				v.I, seen[4] = Impact(c), true
			case "A":
				v.A, seen[5] = Impact(c), true
			}
		default:
			return Vector{}, fmt.Errorf("cvss: unknown metric %q in %q", name, orig)
		}
	}
	for i, ok := range seen {
		if !ok {
			names := []string{"AV", "AC", "Au", "C", "I", "A"}
			return Vector{}, fmt.Errorf("cvss: metric %s missing in %q", names[i], orig)
		}
	}
	return v, nil
}

// MustParse is Parse but panics on error; for static tables.
func MustParse(s string) Vector {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders the vector in the canonical bare form.
func (v Vector) String() string {
	return fmt.Sprintf("AV:%c/AC:%c/Au:%c/C:%c/I:%c/A:%c",
		byte(v.AV), byte(v.AC), byte(v.Au), byte(v.C), byte(v.I), byte(v.A))
}

// BaseScore computes the CVSS v2 base score in [0, 10.0] using the
// official equation, including the f(impact) adjustment term.
func (v Vector) BaseScore() float64 {
	impact := 10.41 * (1 - (1-v.C.score())*(1-v.I.score())*(1-v.A.score()))
	exploitability := 20 * v.AV.score() * v.AC.score() * v.Au.score()
	fImpact := 1.176
	if impact == 0 {
		fImpact = 0
	}
	return round1((0.6*impact + 0.4*exploitability - 1.5) * fImpact)
}

// round1 rounds to one decimal place, as the CVSS v2 specification
// requires after each equation.
func round1(x float64) float64 { return math.Round(x*10) / 10 }
