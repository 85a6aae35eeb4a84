package classify

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
)

func entryWithSummary(summary string) *cve.Entry {
	return &cve.Entry{
		ID:        cve.MustID("CVE-2005-1234"),
		Published: time.Date(2005, 3, 1, 0, 0, 0, 0, time.UTC),
		Summary:   summary,
		Products:  []cpe.Name{cpe.MustParse("cpe:/o:openbsd:openbsd")},
	}
}

func TestEntryValidity(t *testing.T) {
	tests := []struct {
		name    string
		summary string
		want    Validity
	}{
		{"plain", "Buffer overflow in the kernel allows remote attackers to crash the system.", Valid},
		{"unspecified prefix", "Unspecified vulnerability in the kernel has unknown impact.", Unspecified},
		{"unknown prefix", "Unknown vulnerability in login allows local users to gain privileges.", Unknown},
		{"disputed", "** DISPUTED ** Buffer overflow in ftpd.", Disputed},
		{"disputed lowercase", "** disputed ** integer overflow.", Disputed},
		{"disputed beats unknown", "** DISPUTED ** Unknown vulnerability in sshd.", Disputed},
		{"unspecified vectors", "Cross-site scripting via unspecified vectors in the web server.", Unspecified},
		{"unknown attack vectors", "Flaw with unknown attack vectors in the scheduler.", Unknown},
		{"word unknown elsewhere ok", "The kernel mishandles packets from unknown hosts.", Valid},
		{"mixed case in place", "Flaw in the scheduler has UnKnown Impact.", Unknown},
		{"tag past the end", "Flaw with unknown", Valid},
		// Non-ASCII summaries fold through strings.ToLower: the Kelvin
		// sign (U+212A) lowercases to "k" and "İ" (U+0130) to "i".
		{"kelvin sign folds to k", "Flaw in the scheduler has un\u212Anown impact.", Unknown},
		{"dotted capital I folds to i", "Unspec\u0130fied vulnerability in the kernel.", Unspecified},
		{"non-ASCII without a tag", "Flaw in the caf\u00e9 daemon.", Valid},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EntryValidity(entryWithSummary(tt.summary)); got != tt.want {
				t.Fatalf("EntryValidity(%q) = %v, want %v", tt.summary, got, tt.want)
			}
		})
	}
}

// TestEntryValidityMatchesLoweredRule holds the one-pass matcher to the
// rule it replaced: lowercase the whole summary, then test each tag as
// a prefix or substring. Summaries are random runs of tag fragments with
// random ASCII case.
func TestEntryValidityMatchesLoweredRule(t *testing.T) {
	lowered := func(summary string) Validity {
		s := strings.ToLower(summary)
		switch {
		case strings.Contains(s, "** disputed **"):
			return Disputed
		case strings.HasPrefix(s, "unknown vulnerability"):
			return Unknown
		case strings.HasPrefix(s, "unspecified vulnerability"):
			return Unspecified
		case strings.Contains(s, "unknown impact"), strings.Contains(s, "unknown attack vectors"):
			return Unknown
		case strings.Contains(s, "unspecified other impact"), strings.Contains(s, "via unspecified vectors"):
			return Unspecified
		}
		return Valid
	}
	frags := []string{
		"** disputed **", "** disputed *", "unknown vulnerability", "unknown impact",
		"unknown attack vectors", "unspecified vulnerability", "unspecified other impact",
		"via unspecified vectors", "unknown ", "unspecified ", "via ", "*", "u", "v", " ",
		"x", "\n", "unKnown", "İ", "é",
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		var b []byte
		for n := rng.IntN(5); n >= 0; n-- {
			for _, c := range []byte(frags[rng.IntN(len(frags))]) {
				if 'a' <= c && c <= 'z' && rng.IntN(3) == 0 {
					c -= 'a' - 'A'
				}
				b = append(b, c)
			}
		}
		s := string(b)
		if got, want := EntryValidity(entryWithSummary(s)), lowered(s); got != want {
			t.Fatalf("EntryValidity(%q) = %v, the lowered rule gives %v", s, got, want)
		}
	}
}

func TestClassifyByRule(t *testing.T) {
	c := NewClassifier()
	tests := []struct {
		name    string
		summary string
		want    Class
	}{
		{"kernel tcp", "The TCP implementation allows remote attackers to exhaust connection state.", ClassKernel},
		{"kernel fs", "Race condition in the file system layer allows local users to read arbitrary files.", ClassKernel},
		{"kernel vm", "Integer overflow in virtual memory handling leads to a kernel panic.", ClassKernel},
		{"kernel libc", "Heap overflow in libc string routines allows privilege escalation.", ClassKernel},
		{"driver", "Buffer overflow in the wireless card driver allows nearby attackers to execute code.", ClassDriver},
		{"driver video", "Memory corruption in the video card driver crashes the display server.", ClassDriver},
		{"syssoft login", "The login program accepts empty passwords under certain conditions.", ClassSysSoft},
		{"syssoft sshd", "Off-by-one error in sshd allows remote attackers to bypass checks.", ClassSysSoft},
		{"syssoft cron", "cron mishandles setuid when re-reading crontabs.", ClassSysSoft},
		{"app browser", "Use-after-free in the web browser allows remote code execution.", ClassApplication},
		{"app dbms", "SQL injection in the bundled database server discloses records.", ClassApplication},
		{"app media", "Crafted playlist crashes the media player.", ClassApplication},
		{"app kerberos", "Double free in the Kerberos library allows remote code execution.", ClassApplication},
		{"unmatched", "Something entirely unrelated happened.", ClassUnclassified},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Classify(entryWithSummary(tt.summary)); got != tt.want {
				_, rule := c.ClassifyExplained(entryWithSummary(tt.summary))
				t.Fatalf("Classify(%q) = %v (rule %q), want %v", tt.summary, got, rule, tt.want)
			}
		})
	}
}

func TestRuleOrderDriverBeforeKernel(t *testing.T) {
	// A driver flaw whose description also mentions packets must stay a
	// driver flaw: the Driver rule precedes the Kernel rule.
	c := NewClassifier()
	e := entryWithSummary("Malformed packet processing in the wireless card driver causes a crash.")
	got, rule := c.ClassifyExplained(e)
	if got != ClassDriver {
		t.Fatalf("Classify = %v via rule %q, want ClassDriver", got, rule)
	}
}

func TestWordBoundaries(t *testing.T) {
	c := NewClassifier()
	// "gamete" must not trigger the "game" keyword; "sshdx" not "sshd".
	for _, s := range []string{
		"The gamete sequencing tool has a flaw.",
		"The sshdx utility mishandles input.",
	} {
		if got := c.Classify(entryWithSummary(s)); got != ClassUnclassified {
			t.Errorf("Classify(%q) = %v, want ClassUnclassified (substring leak)", s, got)
		}
	}
	// Punctuation must not defeat matching.
	if got := c.Classify(entryWithSummary("Flaw in sshd: remote bypass.")); got != ClassSysSoft {
		t.Errorf("punctuated sshd summary classified %v, want SysSoft", got)
	}
	if got := c.Classify(entryWithSummary("KERNEL panic on malformed input.")); got != ClassKernel {
		t.Errorf("uppercase KERNEL classified %v, want Kernel", got)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassDriver:       "Driver",
		ClassKernel:       "Kernel",
		ClassSysSoft:      "Sys. Soft.",
		ClassApplication:  "App.",
		ClassUnclassified: "Unclassified",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestValidityStrings(t *testing.T) {
	for v, s := range map[Validity]string{
		Valid: "Valid", Unknown: "Unknown", Unspecified: "Unspecified", Disputed: "Disputed",
	} {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestNilAndZeroClassifier(t *testing.T) {
	var nilC *Classifier
	if got := nilC.Classify(entryWithSummary("kernel panic")); got != ClassUnclassified {
		t.Error("nil classifier must return Unclassified")
	}
	var zero Classifier
	if got := zero.Classify(entryWithSummary("kernel panic")); got != ClassUnclassified {
		t.Error("zero classifier (no rules) must return Unclassified")
	}
}

func TestEveryRuleKeywordFires(t *testing.T) {
	// Guards the rule table against dead keywords: each keyword, embedded
	// in a neutral sentence, must classify to its rule's class — proving
	// no earlier rule shadows it.
	c := NewClassifier()
	for _, r := range c.rules {
		for _, kw := range r.Keywords {
			summary := "Issue involving " + kw + " reported."
			got, rule := c.ClassifyExplained(entryWithSummary(summary))
			if got != r.Class {
				t.Errorf("keyword %q of rule %q classified as %v via %q, want %v",
					kw, r.Name, got, rule, r.Class)
			}
		}
	}
}

func TestMemoizedClassificationStable(t *testing.T) {
	// Repeated classifications of the same summary (the hot path of
	// 100k-corpus digestion) must serve from the memo and agree with a
	// cold classifier on every call.
	summaries := []string{
		"Buffer overflow in the kernel allows remote attackers to crash the system.",
		"Issue in the wireless card driver lets attackers inject frames.",
		"Flaw in sshd permits remote login bypass.",
		"Completely unmatched text about gardening.",
	}
	warm := NewClassifier()
	for i := 0; i < 3; i++ {
		for _, s := range summaries {
			cold := NewClassifier()
			wantClass, wantRule := cold.ClassifyExplained(entryWithSummary(s))
			gotClass, gotRule := warm.ClassifyExplained(entryWithSummary(s))
			if gotClass != wantClass || gotRule != wantRule {
				t.Errorf("pass %d: memoized classify(%q) = (%v, %q), cold = (%v, %q)",
					i, s, gotClass, gotRule, wantClass, wantRule)
			}
		}
	}
}

func TestFoldText(t *testing.T) {
	got := foldText("TCP/IP-stack, v2!")
	if !strings.Contains(got, " tcp ip stack ") {
		t.Errorf("foldText output %q lacks normalized phrase", got)
	}
}
